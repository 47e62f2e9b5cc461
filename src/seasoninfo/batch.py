"""Fits of many replicates at once.

Each row of (K, m) game columns (``encode_rows`` indices and margins) is
one replicate's training set. The win/loss fit runs damped Newton in
lockstep over the rows, each with its own step halving; its rows are
grouped by their number of seen teams, the teams of the decisive games.
The margin fit solves one full-size (n_teams + 1)² system per row. Every
per-row sum runs in its one-row order, so a row's result is, bit for bit,
the one it gets when fitted alone.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PENALTY = 1.0
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100


def _seen_rows(home, away, n_teams: int, counted):
    """Per row of (K, m) game columns: which teams play in the ``counted``
    games, each seen team's index among them, the number of seen teams,
    and the rows stably ordered by that number (equal systems adjacent)."""
    off = (np.arange(len(home)) * n_teams)[:, None]
    plays = 0
    for side in (home, away):
        plays = plays + np.bincount((side + off)[counted], minlength=off.size * n_teams)
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
    home wins and ``decisive`` the decisive games; ``runs`` is
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
            games, pi = [_front(x, keep) for x in games], _front(pi, keep)
            for keys in games[:2]:
                keys -= ((keep - np.arange(len(keep))) * width)[:, None]
            theta, grad, gnorm, n, ids, iters, live = (
                x[keep] for x in (theta, grad, gnorm, n, ids, iters, live))
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
        # did not shrink, so only there is it computed, at both points. A
        # pass takes the gradient of every row: one that is done holds its
        # accepted parameters, so its pi comes out unchanged.
        scale, todo = np.ones(len(n)), np.arange(len(n))
        cand = theta + step
        _recenter(cand, runs)
        while todo.size:
            c_grad, c_gnorm = _bt_gradient(cand, *games, n, runs, penalty, pi)
            ok = c_gnorm[todo] < gnorm[todo]
            if not ok.all():
                ask = todo[~ok]
                ok[~ok] = (_bt_objective(cand, ask, *games, n, penalty)
                           > _bt_objective(theta, ask, *games, n, penalty))
            if len(todo) == len(n) and ok.all():
                theta, grad, gnorm = cand, c_grad, c_gnorm
                iters += 1
                break
            took = todo[ok]
            theta[took], grad[took], gnorm[took] = cand[took], c_grad[took], c_gnorm[took]
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
    h[~dec] = a[~dec] = np.broadcast_to(base, h.shape)[~dec]  # ties carry no weight
    theta, iterations[order], norms[order] = _bt_newton(
        h, a, margin[order] > 0, dec, n, penalty, tol, max_iter)

    fitted = np.zeros((len(order), n_teams + 1))
    fitted[:, :n_teams][played] = theta[:, :-1][np.arange(width - 1) < n[:, None]]
    fitted[:, n_teams] = theta[np.arange(len(order)), n]
    coef[order] = fitted
    return coef, iterations, norms


def fit_mov_batch(home, away, margin, n_teams: int, penalty: float = DEFAULT_PENALTY):
    """Closed-form ridge margin fit (``models.fit_mov``) of each row of
    (K, m) game columns over ``n_teams`` teams: coefficients (K, n_teams +
    1: strengths, then home advantage); unseen teams get strength 0.

    A game's design row is e_home - e_away + e_adv, so the normal equations
    are the schedule's graph Laplacian bordered by home-minus-away counts
    (Massey 1997), from one integer bincount over (home, away) pairs, exact
    in any order. They gain 1 on each unseen team's diagonal and the seen
    teams' outer product (the seen strengths' sum in each seen team's
    equation), both 0 at the ridge optimum: there an unseen team's equation
    reads penalty * s = 0, and the teams' equations sum, every game term
    cancelling, to penalty * sum(s) = 0. So a positive penalty gives
    positive definite systems, one stacked solve. At penalty 0, or one below
    sqrt(eps) * (m + 1) that LU's rounding could swamp, the terms pin the
    strengths' sum and rank-revealing least squares takes each row, so a
    disconnected schedule or a confounded home advantage fits too.
    """
    if penalty < 0:
        raise ValueError("penalty must be non-negative")
    (count, m), k = margin.shape, n_teams + 1
    block = (np.arange(count) * k)[:, None]
    hk, ak = home + block, away + block  # row block + team
    g = np.bincount(hk.ravel(), margin.ravel(), count * k).reshape(count, k)
    g -= np.bincount(ak.ravel(), margin.ravel(), count * k).reshape(count, k)
    g[:, n_teams] = margin.sum(axis=1)
    hk *= k
    hk += ak - block
    pairs = np.bincount(hk.ravel(), minlength=count * k * k).reshape(count, k, k)
    del hk, ak
    G = np.add(pairs, pairs.transpose(0, 2, 1), out=np.empty(pairs.shape))
    home_n, away_n = pairs.sum(axis=2), pairs.sum(axis=1)
    del pairs
    seen = (home_n + away_n)[:, :n_teams] > 0
    teams = G[:, :n_teams, :n_teams]  # a view
    np.subtract(seen[:, :, None] & seen[:, None, :], teams, out=teams)
    G.reshape(count, -1)[:, ::k + 1] = home_n + away_n + (1.0 + penalty)
    G[:, n_teams] = G[:, :, n_teams] = home_n - away_n
    G[:, n_teams, n_teams] = m
    if penalty > np.finfo(float).eps ** 0.5 * (m + 1):  # clear of LU's rounding
        return np.linalg.solve(G, g[..., None])[..., 0]
    for M, b in zip(G, g):
        b[:] = np.linalg.lstsq(M, b, rcond=None)[0]
    g[:, :n_teams][~seen] = 0.0
    return g
