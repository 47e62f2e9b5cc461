"""Fits of many replicates at once.

Each row of (K, m) game columns (``encode_rows`` indices and margins) is
one replicate's training set. The win/loss fit runs damped Newton in
lockstep over the rows, each with its own step halving; the margin fit
solves stacked normal equations. Rows are grouped by their number of seen
teams and every per-row sum runs in its one-row order, so a row's result
is, bit for bit, the one it gets when fitted alone.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PENALTY = 1.0
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100


def _seen_rows(home, away, n_teams: int, counted=None):
    """Per row of (K, m) game columns: which teams play in the ``counted``
    games (default all), each seen team's index among them, the number of
    seen teams, and the rows stably ordered by that number (equal systems
    adjacent)."""
    off = (np.arange(len(home)) * n_teams)[:, None]
    plays = 0
    for side in (home, away):
        keys = side + off
        plays = plays + np.bincount(keys.ravel() if counted is None else keys[counted],
                                    minlength=off.size * n_teams)
    played = plays.reshape(-1, n_teams) > 0
    sizes = played.sum(axis=1)
    return played, np.cumsum(played, axis=1) - 1, sizes, np.argsort(sizes, kind="stable")


def _runs(sizes):
    """``(size, rows)`` for each run of equal values in sorted ``sizes``,
    ``rows`` the run's slice; each run is one stacked solve."""
    cuts = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), len(sizes)]
    return [(int(sizes[lo]), slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def _row_dots(x, runs, extra=0):
    """``v @ v`` for ``v = x[i, :size + extra]``, row i in a run of ``size``,
    by one stacked matmul per run: the BLAS dot a lone vector gets."""
    out = np.empty(len(x))
    for n, rows in runs:
        v = x[rows, :n + extra]
        out[rows] = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    return out


def linear_predictor(coef, home, away):
    """Home edge ``strength(home) - strength(away) + home_adv`` of each game,
    for each row of ``coef`` (one strength per team, then the home
    advantage). ``home`` and ``away`` index the flattened ``coef``: row i's
    team t is key ``i * coef.shape[1] + t``."""
    flat = coef.ravel()
    eta = flat[home]
    eta -= flat[away]
    eta += coef[:, -1:]
    return eta


def win_probability(eta, out=None):
    """Home-win probability for home edge(s) ``eta`` on the logit scale,
    ``1 / (1 + e^-eta)``; into ``out`` if given."""
    p = np.exp(np.negative(eta, out=out), out=out)
    return np.divide(1.0, np.add(1.0, p, out=out), out=out)


def _bt_gradient(theta, h, a, w, decisive, sizes, runs, penalty, pi, start=False):
    """Gradient and gradient norm of each row; its win probabilities (0 on
    ties) go into ``pi``. Row i of ``theta`` holds ``sizes[i]`` strengths, the
    home advantage, then zeros; ``h``, ``a`` index the flattened ``theta``
    (any key of the row on a tie, which carries no weight); ``w`` marks
    home wins; ``decisive`` is None if no game is tied; ``runs`` is
    ``_runs(sizes)``. At the ``start``, theta = 0, every win probability is
    1 / (1 + e^0), exactly 1/2: no gathers, no exponentials."""
    rows = np.arange(len(theta))
    alpha = theta[rows, sizes]
    flat = theta.ravel()
    if start:
        pi.fill(0.5)
        r = np.empty(pi.shape)
    else:
        r = flat[h]
        r -= flat[a]
        r += alpha[:, None]
        win_probability(r, out=pi)
    if decisive is not None:
        pi *= decisive
    np.subtract(w, pi, out=r)
    grad = np.bincount(h.ravel(), r.ravel(), flat.size).reshape(theta.shape)
    grad -= np.bincount(a.ravel(), r.ravel(), flat.size).reshape(theta.shape)
    grad -= penalty * theta
    grad[rows, sizes] = r.sum(axis=1) - penalty * alpha
    return grad, np.sqrt(_row_dots(grad, runs, extra=1))


def _bt_objective(theta, rows, h, a, w, decisive, sizes, penalty):
    """Penalized log-likelihood of rows ``rows`` of ``theta``, the other
    arguments as for ``_bt_gradient``. -log pi = log(1 + e^-eta) and
    -log(1-pi) = log(1 + e^eta) are both max(0, -+eta) + log1p(e^-|eta|):
    one exp and one log1p per game. fmax sends NaN to 0 as
    np.where(x > 0, x, 0) does; a -0 it keeps is +0 once log1p is added."""
    n = sizes[rows]
    alpha = theta[rows, n]
    flat = theta.ravel()
    eta = flat[h[rows]]
    terms = flat[a[rows]]
    eta -= terms
    eta += alpha[:, None]
    np.fmax(np.multiply(eta, 1 - 2 * w[rows], out=terms), 0.0, out=terms)
    for f in (np.abs, np.negative, np.exp, np.log1p):
        f(eta, out=eta)
    terms += eta
    if decisive is not None:
        terms *= decisive[rows]
    return -terms.sum(axis=1) - 0.5 * penalty * (_row_dots(theta[rows], _runs(n)) + alpha * alpha)


def _bt_hessian(pi, h, a, n, penalty, base=0):
    """Negated Hessians (positive definite) of the penalized log-likelihood
    for rows of (G, m) games over ``n`` teams each, whose strengths row i's
    ``h - base[i]``, ``a - base[i]`` index; (G, n+1, n+1). Each row's
    off-diagonal sums run over its (h, a) and then its (a, h) pairs, in
    game order, as two ``np.subtract.at`` passes over one matrix would."""
    count, k = len(pi), n + 1
    wt = pi * (1.0 - pi)
    shift = (np.arange(count) * k)[:, None] - base  # h + shift: h's index in the stack
    H = np.zeros((count, k, k))
    keys = np.empty(pi.shape, dtype=np.intp)
    for first, second in ((h, a), (a, h)):
        np.multiply(first, k, out=keys)
        keys += second
        keys += shift * k - base
        np.subtract.at(H.reshape(-1), keys.ravel(), wt.ravel())
    dh, da = (np.bincount(np.add(side, shift, out=keys).ravel(), wt.ravel(), count * k)
              .reshape(count, k) for side in (h, a))
    diagonal = H.reshape(count, -1)[:, ::k + 1]  # a view
    diagonal[:, :n] = dh[:, :n] + da[:, :n]
    H[:, :n, n] = dh[:, :n] - da[:, :n]
    H[:, n, :n] = H[:, :n, n]
    H[:, n, n] = wt.sum(axis=1)
    diagonal += penalty
    return H


def _recenter(theta, runs):
    """Shift each row's strengths to sum to zero, in place."""
    for n, rows in runs:
        beta = theta[rows, :n]
        beta -= beta.sum(axis=1, keepdims=True) / n


def _front(x, keep):
    """Move rows ``keep`` of ``x`` to its front, in place; returns them."""
    x[:len(keep)] = x[keep]
    return x[:len(keep)]


def _bt_newton(h, a, w, decisive, n, penalty, tol, max_iter):
    """Damped Newton in lockstep over rows of games with a decisive game
    each, ``n`` (sorted) seen teams per row; ``h``, ``a`` index the
    flattened (rows, n[-1] + 1) parameters. A finished row leaves: the live
    rows' games move to the front of the game arrays, in place. Returns the
    parameters (row i: ``n[i]`` strengths, home advantage, zeros),
    iterations and gradient norms."""
    count, width = len(n), n[-1] + 1
    theta = np.zeros((count, width))
    fitted, iterations, norms = theta.copy(), np.zeros(count, dtype=int), np.empty(count)
    ids, iters = np.arange(count), iterations.copy()  # output row, iterations of live rows
    games = [h, a, w, decisive]
    pi = np.empty(h.shape)
    runs = _runs(n)
    grad, gnorm = _bt_gradient(theta, *games, n, runs, penalty, pi, start=True)
    obj = np.full(count, np.nan)  # objective at theta; NaN until a decision reads it
    live = np.ones(count, dtype=bool)
    while True:
        live &= (gnorm > tol) & (iters < max_iter)
        if not live.all():
            done = ~live
            fitted[ids[done]], iterations[ids[done]], norms[ids[done]] = (
                theta[done], iters[done], gnorm[done])
            keep = np.flatnonzero(live)
            if not keep.size:
                return fitted, iterations, norms
            games, pi = [None if x is None else _front(x, keep) for x in games], _front(pi, keep)
            for keys in games[:2]:
                keys -= ((keep - np.arange(len(keep))) * width)[:, None]
            theta, obj, grad, gnorm, n, ids, iters, live = (
                x[keep] for x in (theta, obj, grad, gnorm, n, ids, iters, live))
            runs = _runs(n)
        (h, a), base = games[:2], (np.arange(len(n)) * width)[:, None]
        step = np.zeros_like(theta)
        for size, rows in runs:
            hessian = _bt_hessian(pi[rows], h[rows], a[rows], size, penalty, base[rows])
            step[rows, :size + 1] = np.linalg.solve(hessian, grad[rows, :size + 1, None])[..., 0]
            del hessian  # before the next stack's is built
        # Re-center to shed float drift. A step counts as progress if it
        # shrinks the gradient or raises the objective; each row halves its
        # own step until it does. The objective decides only where the norm
        # did not shrink, so only there is it computed, once per accepted
        # point. A pass takes the gradient of every row: one that is done
        # holds its accepted parameters, so its pi comes out unchanged.
        scale, todo = np.ones(len(n)), np.arange(len(n))
        cand = theta + step
        _recenter(cand, runs)
        while todo.size:
            c_grad, c_gnorm = _bt_gradient(cand, *games, n, runs, penalty, pi)
            c_obj = np.full(len(n), np.nan)
            ask = todo[~(c_gnorm[todo] < gnorm[todo])]
            if ask.size:
                stale = ask[np.isnan(obj[ask])]
                if stale.size:
                    obj[stale] = _bt_objective(theta, stale, *games, n, penalty)
                c_obj[ask] = _bt_objective(cand, ask, *games, n, penalty)
            ok = (c_obj[todo] > obj[todo]) | (c_gnorm[todo] < gnorm[todo])
            if len(todo) == len(n) and ok.all():
                theta, obj, grad, gnorm = cand, c_obj, c_grad, c_gnorm
                iters += 1
                break
            took = todo[ok]
            theta[took], obj[took], grad[took] = cand[took], c_obj[took], c_grad[took]
            gnorm[took] = c_gnorm[took]
            iters[took] += 1
            todo = todo[~ok]
            scale[todo] *= 0.5
            stuck = scale[todo] <= 1e-12
            live[todo[stuck]] = False  # no progress possible; the norm decides
            todo = todo[~stuck]
            part = theta[todo] + scale[todo, None] * step[todo]
            _recenter(part, _runs(n[todo]))
            cand[todo] = part


def fit_bt_batch(home, away, margin, n_teams: int, penalty: float = DEFAULT_PENALTY,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Ridge-penalized Bradley-Terry fit (``models.fit_bt``) of each row of
    (K, m) game columns over ``n_teams`` teams, by damped Newton run in
    lockstep over the rows. Tied games carry no weight; teams a row's
    decisive games never reach keep strength exactly 0. Returns the
    coefficients (K, n_teams + 1: strengths, then the home advantage), the
    Newton iterations (K,) and the final gradient norms (K,): a row
    converged if its norm is at most ``tol``, NaN without a decisive game.
    """
    if penalty <= 0:
        raise ValueError("penalty must be positive")
    count = len(margin)
    coef, iterations = np.zeros((count, n_teams + 1)), np.zeros(count, dtype=int)
    norms = np.full(count, np.nan)
    decisive = margin != 0
    played, local, sizes, order = _seen_rows(home, away, n_teams, decisive)
    order = order[sizes[order] > 0]  # rows with a decisive game
    if not order.size:
        return coef, iterations, norms
    played, n, dec = played[order], sizes[order], decisive[order]
    width = n[-1] + 1
    base = (np.arange(len(order)) * width)[:, None]  # row i's parameters start here
    local = (local[order] + base).ravel()
    off = (np.arange(len(order)) * n_teams)[:, None]
    h, a = local[home[order] + off], local[away[order] + off]
    if dec.all():
        dec = None
    else:
        h[~dec] = a[~dec] = np.broadcast_to(base, h.shape)[~dec]  # ties carry no weight
    theta, iterations[order], norms[order] = _bt_newton(
        h, a, margin[order] > 0, dec, n, penalty, tol, max_iter)

    fitted = np.zeros((len(order), n_teams + 1))
    fitted[:, :n_teams][played] = theta[:, :-1][np.arange(width - 1) < n[:, None]]
    fitted[:, n_teams] = theta[np.arange(len(order)), n]
    coef[order] = fitted
    return coef, iterations, norms


def _solve(A, b):
    """Stacked solves of A x = b; a singular system falls back to least
    squares, on its own."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(b) == 1:
            return np.linalg.lstsq(A[0], b[0], rcond=None)[0][None]
        return np.concatenate([_solve(A[i:i + 1], b[i:i + 1]) for i in range(len(b))])


def _mov_normal_equations(home, away, margin, coord, n, penalty):
    """Reduced normal equations (G, n, n) and (G, n) of rows of games
    among n seen teams each, ``coord`` each seen team's index among them
    (``_seen_rows``; changed in place). Coordinates:
    0..last-1 the strengths of the first n-1 seen teams,
    ``last`` the home advantage, n the last seen team's strength. A game's
    design row is e_home - e_away + e_adv, so the normal equations are the
    schedule's graph Laplacian bordered by home-minus-away counts (Massey
    1997), taken from one integer bincount over (home, away) pairs. Every
    entry is an integer, exact in any summation order.
    """
    (count, n_teams), m = coord.shape, margin.shape[1]
    last, k = n - 1, n + 1
    coord += coord == last
    block = (np.arange(count) * k)[:, None]
    lookup = (coord + block).ravel()
    off = (np.arange(count) * n_teams)[:, None]
    hk, ak = lookup[home + off], lookup[away + off]  # row block + coordinate
    g = np.bincount(hk.ravel(), margin.ravel(), count * k).reshape(count, k)
    g -= np.bincount(ak.ravel(), margin.ravel(), count * k).reshape(count, k)
    g[:, last] = margin.sum(axis=1)
    hk *= k
    hk += ak - block
    pairs = np.bincount(hk.ravel(), minlength=count * k * k).reshape(count, k, k)
    del hk, ak
    G = np.add(pairs, pairs.transpose(0, 2, 1), out=np.empty(pairs.shape))
    np.subtract(0.0, G, out=G)  # minus the games between each pair of teams
    home_n, away_n = pairs.sum(axis=2), pairs.sum(axis=1)
    del pairs
    G.reshape(count, -1)[:, ::k + 1] = home_n + away_n
    G[:, last] = G[:, :, last] = home_n - away_n
    G[:, last, last] = m
    # Strengths sum to zero: substituting the last one as the negated sum
    # of the others leaves the reduced system in the first n coordinates,
    # where penalty * sum(delta_i^2) is I + ones*ones^T. One matrix at a
    # time: across the stack, numpy's iterator buffers outgrow the stack.
    ridge = penalty * (np.eye(last) + np.ones((last, last)))
    for M in G:
        M[:last] -= M[n]
        M[:, :last] -= M[:, n:]
        M[:last, :last] += ridge
    g[:, :last] -= g[:, n:]
    return G[:, :n, :n], g[:, :n]


def fit_mov_batch(home, away, margin, n_teams: int, penalty: float = DEFAULT_PENALTY):
    """Closed-form ridge margin fit (``models.fit_mov``) of each row of
    (K, m) game columns over ``n_teams`` teams: coefficients (K, n_teams +
    1: strengths, then home advantage); unseen teams keep strength 0."""
    if penalty < 0:
        raise ValueError("penalty must be non-negative")
    played, local, sizes, order = _seen_rows(home, away, n_teams)
    coef = np.zeros((len(margin), n_teams + 1))  # unseen teams keep strength 0
    for n, rows in _runs(sizes[order]):
        idx = order[rows]
        x = _solve(*_mov_normal_equations(home[idx], away[idx], margin[idx], local[idx], n,
                                          penalty))
        fitted = np.zeros((len(idx), n_teams + 1))
        fitted[:, :n_teams][played[idx]] = np.concatenate(
            [x[:, :n - 1], -x[:, :n - 1].sum(axis=1, keepdims=True)], axis=1).ravel()
        fitted[:, n_teams] = x[:, n - 1]
        coef[idx] = fitted
    return coef
