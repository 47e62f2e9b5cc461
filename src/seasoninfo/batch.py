"""Fits of many replicates at once.

Each row of (K, m) game columns (``encode_games`` indices and margins) is
one replicate's training set. The win/loss fit runs damped Newton in
lockstep over the rows, each row with its own step halving; the margin
fit solves the rows' normal equations as stacked systems. Rows are
grouped by their number of seen teams, so every system a row meets has
its one-row size, and every per-row sum runs in its one-row order: a
row's result is, bit for bit, the one it gets when fitted alone.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PENALTY = 1.0
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100


def _seen_rows(home, away, counted, n_teams: int):
    """Per row of (K, m) game columns: which teams play in the ``counted``
    games, and each team's index among the row's seen teams (valid only
    for seen teams)."""
    off = (np.arange(len(home)) * n_teams)[:, None]
    plays = (np.bincount((home + off)[counted], minlength=off.size * n_teams)
             + np.bincount((away + off)[counted], minlength=off.size * n_teams))
    played = plays.reshape(-1, n_teams) > 0
    return played, np.cumsum(played, axis=1) - 1


def _by_size(sizes):
    """Row order by ascending size, ties in row order (a stable sort)."""
    sizes = sizes.tolist()
    return np.array(sorted(range(len(sizes)), key=sizes.__getitem__), dtype=np.intp)


def _runs(sizes):
    """``(size, rows)`` for each run of equal values in sorted ``sizes``,
    ``rows`` a slice."""
    if not len(sizes):
        return []
    cuts = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), len(sizes)]
    return [(int(sizes[lo]), slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]


def _row_dots(x, runs, extra=0):
    """``v @ v`` for ``v = x[i, :size + extra]``, row i in a run of ``size``.
    A run's rows go through one stacked matmul, which calls the BLAS dot a
    lone vector gets, so each value is the one-row value."""
    out = np.empty(len(x))
    for n, rows in runs:
        v = x[rows, :n + extra]
        out[rows] = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    return out


def linear_predictor(coef, home, away):
    """Home edge ``strength(home) - strength(away) + home_adv`` of each game,
    for each row of ``coef`` (one strength per team, then the home
    advantage) and the games in the same row of ``home``, ``away``."""
    rows = np.arange(len(coef))[:, None]
    return coef[rows, home] - coef[rows, away] + coef[:, -1:]


def win_probability(eta):
    """Home-win probability for home edge(s) ``eta`` on the logit scale."""
    return 1.0 / (1.0 + np.exp(-eta))


def _bt_evaluate(theta, h, a, w, decisive, sizes, runs, penalty):
    """Objective, gradient, win probabilities (0 on ties) and gradient norm
    of each row.

    Row i of ``theta`` holds ``sizes[i]`` strengths, then the home
    advantage, then zero padding; ``h``, ``a`` index its strengths (any
    valid index on a tie, which carries no weight); ``decisive`` is None
    if no game is tied; ``runs`` is ``_runs(sizes)``. Every per-row sum
    runs in the order a one-row call would use.
    """
    rows = np.arange(len(theta))
    alpha = theta[rows, sizes]
    off = (rows * theta.shape[1])[:, None]
    hk, ak = (h + off).ravel(), (a + off).ravel()
    flat = theta.ravel()
    eta = (flat[hk] - flat[ak]).reshape(h.shape)
    eta += alpha[:, None]
    # -log pi = log(1 + e^-eta) and -log(1-pi) = log(1 + e^eta) are both
    # max(0, +-eta) + log1p(e^-|eta|): one exp and one log1p per game, a
    # tenth of np.logaddexp's cost. The objective only gates a step's
    # acceptance, so its last bits matter only in a near-tie that the
    # gradient norm does not settle.
    terms = eta * (1.0 - 2.0 * w)
    terms = np.where(terms > 0.0, terms, 0.0)
    terms += np.log1p(np.exp(-np.abs(eta)))
    pi = win_probability(eta)
    if decisive is not None:
        terms *= decisive
        pi *= decisive
    obj = -terms.sum(axis=1) - 0.5 * penalty * (_row_dots(theta, runs) + alpha * alpha)
    r = w - pi
    grad = np.bincount(hk, r.ravel(), flat.size) - np.bincount(ak, r.ravel(), flat.size)
    grad = grad.reshape(theta.shape)
    grad -= penalty * theta
    grad[rows, sizes] = r.sum(axis=1) - penalty * alpha
    return obj, grad, pi, np.sqrt(_row_dots(grad, runs, extra=1))


def _bt_hessian(pi, h, a, n, penalty):
    """Negated Hessians (positive definite) of the penalized log-likelihood
    for rows of (G, m) games over ``n`` teams each; (G, n+1, n+1).

    Each row's off-diagonal sums run over its (h, a) pairs and then its
    (a, h) pairs, in game order, as two ``np.subtract.at`` passes over one
    matrix would add them.
    """
    wt = pi * (1.0 - pi)
    count, k = len(wt), n + 1
    off = (np.arange(count) * k)[:, None]
    hk, ak = h + off, a + off
    H = np.zeros((count, k, k))
    np.subtract.at(H.reshape(-1), (hk * k + a).ravel(), wt.ravel())
    np.subtract.at(H.reshape(-1), (ak * k + h).ravel(), wt.ravel())
    dh = np.bincount(hk.ravel(), weights=wt.ravel(), minlength=count * k).reshape(count, k)
    da = np.bincount(ak.ravel(), weights=wt.ravel(), minlength=count * k).reshape(count, k)
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


def _bt_newton(h, a, w, decisive, n, penalty, tol, max_iter):
    """Damped Newton in lockstep over rows of games with at least one
    decisive game each, ``n`` (sorted) seen teams per row. Returns the
    parameters (row i: ``n[i]`` strengths, the home advantage, zeros), the
    iterations and the final gradient norms."""
    count = len(n)
    every = _runs(n)
    theta = np.zeros((count, n[-1] + 1))
    obj, grad, pi, gnorm = _bt_evaluate(theta, h, a, w, decisive, n, every, penalty)
    iterations = np.zeros(count, dtype=int)
    live = np.ones(count, dtype=bool)
    while True:
        live &= (gnorm > tol) & (iterations < max_iter)
        act = np.flatnonzero(live)
        if not act.size:
            return theta, iterations, gnorm
        whole = len(act) == count
        step = np.zeros((len(act), theta.shape[1]))
        for size, rows in every if whole else _runs(n[act]):
            at = rows if whole else act[rows]
            hessian = _bt_hessian(pi[at], h[at], a[at], size, penalty)
            step[rows, :size + 1] = np.linalg.solve(hessian, grad[at, :size + 1, None])[..., 0]
            del hessian  # before the next run's is built
        # Newton steps from a centered iterate stay centered; re-center
        # anyway to shed float drift. A step counts as progress if it
        # raises the objective or, once objective changes fall below
        # float resolution near the optimum, shrinks the gradient. Each
        # row halves its own step until it makes progress.
        scale = np.ones(len(act))
        todo = np.arange(len(act))
        while todo.size:
            full = whole and len(todo) == count  # views, not copies, of every row
            rows = slice(None) if full else act[todo]
            runs = every if full else _runs(n[rows])
            cand = theta[rows] + scale[todo, None] * step[todo]
            _recenter(cand, runs)
            games = (h, a, w, decisive) if full else (
                h[rows], a[rows], w[rows], None if decisive is None else decisive[rows])
            c_obj, c_grad, c_pi, c_gnorm = _bt_evaluate(cand, *games, n[rows], runs, penalty)
            ok = (c_obj > obj[rows]) | (c_gnorm < gnorm[rows])
            if full and ok.all():
                theta, obj, grad, pi, gnorm = cand, c_obj, c_grad, c_pi, c_gnorm
                iterations += 1
                break
            took = act[todo[ok]]
            theta[took], obj[took], grad[took] = cand[ok], c_obj[ok], c_grad[ok]
            pi[took], gnorm[took] = c_pi[ok], c_gnorm[ok]
            iterations[took] += 1
            todo = todo[~ok]
            scale[todo] *= 0.5
            stuck = scale[todo] <= 1e-12
            live[act[todo[stuck]]] = False  # no progress possible; the norm decides
            todo = todo[~stuck]


def fit_bt_batch(home, away, margin, n_teams: int, penalty: float = DEFAULT_PENALTY,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Ridge-penalized Bradley-Terry fit (``models.fit_bt``) of each row of
    (K, m) game columns over ``n_teams`` teams, by damped Newton run in
    lockstep over the rows. Tied games carry no weight; teams a row's
    decisive games never reach keep strength exactly 0.

    Returns the coefficients (K, n_teams + 1: strengths, then the home
    advantage), the Newton iterations (K,) and the final gradient norms
    (K,). A row converged if its norm is at most ``tol``; the norm is NaN
    for a row with no decisive game.
    """
    if penalty <= 0:
        raise ValueError("penalty must be positive")
    count = len(margin)
    coef = np.zeros((count, n_teams + 1))  # unseen teams keep strength 0
    iterations = np.zeros(count, dtype=int)
    norms = np.full(count, np.nan)
    decisive = margin != 0
    played, local = _seen_rows(home, away, decisive, n_teams)
    sizes = played.sum(axis=1)
    # Rows with a decisive game, ordered by seen-team count so that rows
    # whose Newton systems have one size are adjacent.
    order = _by_size(sizes)
    order = order[sizes[order] > 0]
    if not order.size:
        return coef, iterations, norms
    played, n, dec = played[order], sizes[order], decisive[order]
    rows = order[:, None]
    h, a = local[rows, home[order]], local[rows, away[order]]
    if dec.all():
        dec = None
    else:
        h[~dec] = a[~dec] = 0  # any valid index; ties carry no weight
    theta, iterations[order], norms[order] = _bt_newton(
        h, a, (margin[order] > 0).astype(float), dec, n, penalty, tol, max_iter)

    fitted = np.zeros((len(order), n_teams + 1))
    fitted[:, :n_teams][played] = theta[:, :-1][np.arange(theta.shape[1] - 1) < n[:, None]]
    fitted[:, n_teams] = theta[np.arange(len(order)), n]
    coef[order] = fitted
    return coef, iterations, norms


def _solve(A, b):
    """Stacked solves of A x = b; a singular system falls back to least
    squares, on its own."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(b)
    for i in range(len(b)):
        try:
            out[i] = np.linalg.solve(A[i], b[i])
        except np.linalg.LinAlgError:
            out[i] = np.linalg.lstsq(A[i], b[i], rcond=None)[0]
    return out


def _mov_normal_equations(h, a, y, n, penalty):
    """Reduced normal equations (G, n, n) and (G, n) of rows of games over
    ``n`` seen teams each.

    Coordinates: 0..last-1 the strengths of the first n-1 seen teams,
    ``last`` the home advantage, n the last seen team's strength. A game's
    design row is e_home - e_away + e_adv, so the normal equations are the
    schedule's graph Laplacian bordered by home-minus-away counts (Massey
    1997). Every entry is an integer, exact in any summation order.
    """
    count, m = y.shape
    last, k = n - 1, n + 1
    hc, ac = np.where(h == last, n, h), np.where(a == last, n, a)
    off = (np.arange(count) * k)[:, None]
    hk, ak = (hc + off).ravel(), (ac + off).ravel()
    G = np.zeros((count, k, k))  # minus the games between each pair of teams
    np.subtract.at(G.reshape(-1), hk * k + ac.ravel(), 1.0)
    np.subtract.at(G.reshape(-1), ak * k + hc.ravel(), 1.0)
    home_n = np.bincount(hk, minlength=count * k).reshape(count, k)
    away_n = np.bincount(ak, minlength=count * k).reshape(count, k)
    G.reshape(count, -1)[:, ::k + 1] = home_n + away_n
    G[:, last] = G[:, :, last] = home_n - away_n
    G[:, last, last] = m
    g = np.bincount(hk, y.ravel(), count * k) - np.bincount(ak, y.ravel(), count * k)
    g = g.reshape(count, k)
    g[:, last] = y.sum(axis=1)
    # Strengths sum to zero: substituting the last one as the negated sum
    # of the others leaves the reduced system in the first n coordinates.
    # penalty * sum(delta_i^2) in reduced coordinates is I + ones*ones^T.
    # One matrix at a time: an operation across the stack would hold
    # numpy's iterator buffers, larger than the stack itself.
    ridge = penalty * (np.eye(last) + np.ones((last, last)))
    for M in G:
        M[:last] -= M[n]
        M[:, :last] -= M[:, n:]
        M[:last, :last] += ridge
    g[:, :last] -= g[:, n:]
    return G[:, :n, :n], g[:, :n]


def fit_mov_batch(home, away, margin, n_teams: int, penalty: float = DEFAULT_PENALTY):
    """Closed-form ridge margin fit (``models.fit_mov``) of each row of
    (K, m) game columns over ``n_teams`` teams: coefficients (K, n_teams
    + 1: strengths, then the home advantage). Teams a row never reaches
    keep strength exactly 0."""
    if penalty < 0:
        raise ValueError("penalty must be non-negative")
    played, local = _seen_rows(home, away, np.ones(margin.shape, dtype=bool), n_teams)
    sizes = played.sum(axis=1)
    order = _by_size(sizes)
    coef = np.zeros((len(margin), n_teams + 1))  # unseen teams keep strength 0
    for n, rows in _runs(sizes[order]):
        idx = order[rows]
        h, a = local[idx[:, None], home[idx]], local[idx[:, None], away[idx]]
        x = _solve(*_mov_normal_equations(h, a, margin[idx].astype(float), n, penalty))
        last = n - 1
        fitted = np.zeros((len(idx), n_teams + 1))
        fitted[:, :n_teams][played[idx]] = np.concatenate(
            [x[:, :last], -x[:, :last].sum(axis=1, keepdims=True)], axis=1).ravel()
        fitted[:, n_teams] = x[:, last]
        coef[idx] = fitted
    return coef
