"""Fits of many replicates at once.

Each row of (K, m) game columns (``encode_rows`` indices and margins) is
one replicate's training set, fitted on all n_teams + 1 parameters. The
win/loss fit runs damped Newton in lockstep over the rows, each with its
own step halving; the margin fit solves one (n_teams + 1)² system per row;
both solve by ``_ridge_solve``. Every per-row sum runs in its one-row
order, so a row's result is, bit for bit, the one it gets when fitted alone.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PENALTY = 1.0
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100


def _row_dots(x):
    """``v @ v`` for each row ``v`` of ``x``, by one stacked matmul: the BLAS
    dot a lone vector gets. The rows are first copied into a buffer whose
    row stride is an even number of float64s, so each row starts 16-byte
    aligned, as a lone vector does: OpenBLAS's SSE kernels give a row that
    starts 8 bytes off that boundary other bits."""
    count, width = x.shape
    buf = np.empty((count, width + width % 2))[:, :width]
    buf[...] = x
    return (buf[:, None, :] @ buf[:, :, None])[:, 0, 0]


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
    ``1 / (1 + e^-eta)``, exactly 0 where e^-eta overflows; into ``out``."""
    with np.errstate(over="ignore"):
        p = np.exp(np.negative(eta, out=out), out=out)
    return np.divide(1.0, np.add(1.0, p, out=out), out=out)


def _bt_gradient(theta, h, a, w, decisive, penalty, pi, start=False):
    """Gradient and gradient norm of each row; its win probabilities (0 on
    ties) go into ``pi``. ``h``, ``a`` key the games into ``theta`` as for
    ``linear_predictor``; ``w`` marks home wins and ``decisive`` the decisive
    games, so a tie adds +0.0 to every sum. At the ``start``, theta = 0: each
    win probability is exactly 1/2, with no gathers and no exponentials."""
    if start:
        pi.fill(0.5)
        r = np.empty(pi.shape)
    else:
        r = linear_predictor(theta, h, a)
        win_probability(r, out=pi)
    pi *= decisive
    np.subtract(w, pi, out=r)
    grad = np.bincount(h.ravel(), r.ravel(), theta.size).reshape(theta.shape)
    grad -= np.bincount(a.ravel(), r.ravel(), theta.size).reshape(theta.shape)
    grad -= penalty * theta
    grad[:, -1] = r.sum(axis=1) - penalty * theta[:, -1]
    return grad, np.sqrt(_row_dots(grad))


def _bt_objective(theta, rows, h, a, w, decisive, penalty):
    """Penalized log-likelihood of rows ``rows`` of ``theta``, the other
    arguments as for ``_bt_gradient``. -log pi = log(1 + e^-eta) and
    -log(1-pi) = log(1 + e^eta) are both max(0, -+eta) + log1p(e^-|eta|):
    one exp and one log1p per game. fmax sends NaN to 0 as
    np.where(x > 0, x, 0) does; a -0 it keeps is +0 once log1p is added."""
    flat = theta.ravel()
    eta = flat[h[rows]] - flat[a[rows]] + theta[rows, -1:]
    terms = np.fmax(eta * (1 - 2 * w[rows]), 0.0)
    for f in (np.abs, np.negative, np.exp, np.log1p):
        f(eta, out=eta)
    terms += eta
    terms *= decisive[rows]
    return -terms.sum(axis=1) - 0.5 * penalty * _row_dots(theta[rows])


def _bt_hessian(pi, h, a, n, penalty):
    """Negated Hessians (positive definite) of the penalized log-likelihood
    for rows of (G, m) games over ``n`` teams each, ``h`` and ``a`` indexing
    the flattened (G, n+1) parameters; (G, n+1, n+1). Each row's
    off-diagonal sums run over its (h, a) and then its (a, h) pairs, in
    game order, as two ``np.subtract.at`` passes over one matrix would."""
    count, k = len(pi), n + 1
    wt = pi * (1.0 - pi)
    base = (np.arange(count) * k)[:, None]  # row i's first key
    H = np.zeros((count, k, k))
    keys = np.empty(pi.shape, dtype=np.intp)
    for first, second in ((h, a), (a, h)):
        np.multiply(first, k, out=keys)
        keys += second
        keys -= base  # row i's (t, u) entry is key i k² + t k + u of the stack
        np.subtract.at(H.reshape(-1), keys.ravel(), wt.ravel())
    dh, da = (np.bincount(side.ravel(), wt.ravel(), count * k).reshape(count, k)
              for side in (h, a))
    diagonal = H.reshape(count, -1)[:, ::k + 1]  # a view
    diagonal[:, :n] = dh[:, :n] + da[:, :n]
    H[:, :n, n] = dh[:, :n] - da[:, :n]
    H[:, n, :n] = H[:, :n, n]
    H[:, n, n] = wt.sum(axis=1)
    diagonal += penalty
    return H


def _ridge_solve(A, b, penalty, floor, seen):
    """Each row's solution of the ridge system ``A[i] x = b[i]``, whose
    strengths' diagonal carries ``penalty``. Above ``floor`` the penalty
    survives LU's rounding: one stacked solve. At or below it LU could move
    along a direction that only the penalty pins, so each row takes its
    least-norm ``lstsq`` solution, and a team the row does not reach
    (``seen``, K x n_teams, is False) gets exactly 0, as at the optimum."""
    if penalty > floor:
        return np.linalg.solve(A, b[..., None])[..., 0]
    x = np.empty_like(b)
    for M, v, out in zip(A, b, x):
        out[:] = np.linalg.lstsq(M, v, rcond=None)[0]
    x[:, :seen.shape[1]][~seen] = 0.0
    return x


def _bt_newton(h, a, w, decisive, seen, n, penalty, tol, max_iter):
    """Damped Newton in lockstep over rows of games over ``n`` teams, keyed
    as for ``linear_predictor``; ``seen`` (K, n) marks the teams of each
    row's decisive games. A finished row leaves: the live rows' games are
    gathered into new arrays. Returns each row's parameters (strengths,
    home advantage), iterations and gradient norm."""
    count, width = len(h), n + 1
    floor = np.finfo(float).eps * (h.shape[1] + 1)
    theta = np.zeros((count, width))
    fitted, iterations, norms = theta.copy(), np.zeros(count, dtype=int), np.empty(count)
    ids, iters = np.arange(count), iterations.copy()  # output row, iterations of live rows
    games = [h, a, w, decisive]
    pi = np.empty(h.shape)
    grad, gnorm = _bt_gradient(theta, *games, penalty, pi, start=True)
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
            games, pi = [x[keep] for x in games], pi[keep]
            for keys in games[:2]:
                keys -= ((keep - np.arange(len(keep))) * width)[:, None]
            theta, grad, gnorm, ids, iters, live, seen = (
                x[keep] for x in (theta, grad, gnorm, ids, iters, live, seen))
        step = _ridge_solve(_bt_hessian(pi, *games[:2], n, penalty), grad, penalty, floor, seen)
        # A step counts as progress if it shrinks the gradient or raises
        # the objective. The rows that made no progress halve their steps
        # together, so one scale serves them. The objective decides only
        # where the norm did not shrink, so only there is it computed, at
        # both points. A pass takes the gradient of every row: one that is
        # done holds its accepted parameters, so its pi comes out unchanged.
        scale, todo, cand = 1.0, np.arange(len(theta)), theta + step
        while todo.size and scale > 1e-12:
            c_grad, c_gnorm = _bt_gradient(cand, *games, penalty, pi)
            ok = c_gnorm[todo] < gnorm[todo]
            if not ok.all():
                ask = todo[~ok]
                ok[~ok] = (_bt_objective(cand, ask, *games, penalty)
                           > _bt_objective(theta, ask, *games, penalty))
            if len(todo) == len(theta) and ok.all():
                theta, grad, gnorm = cand, c_grad, c_gnorm
                iters += 1
                break
            took = todo[ok]
            theta[took], grad[took], gnorm[took] = cand[took], c_grad[took], c_gnorm[took]
            iters[took] += 1
            todo = todo[~ok]
            scale *= 0.5
            cand[todo] = theta[todo] + scale * step[todo]
        else:  # rows left at the floor can make no progress; the norm decides
            live[todo] = False


def fit_bt_batch(home, away, margin, n_teams: int, penalty: float = DEFAULT_PENALTY,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Ridge-penalized Bradley-Terry fit (``models.fit_bt``) of each row of
    (K, m) game columns over ``n_teams`` teams, by damped Newton run in
    lockstep over the rows. Tied games carry no weight. Returns the
    coefficients (K, n_teams + 1: strengths, then the home advantage), the
    Newton iterations (K,) and the final gradient norms (K,): a row
    converged if its norm is at most ``tol``, NaN without a decisive game.

    No constraint is imposed: at the ridge optimum a team that no decisive
    game reaches has the equation penalty * s = 0, and the teams' equations
    sum, every game term cancelling, to penalty * sum(s) = 0. Such a team's
    gradient is -penalty * 0 and its Hessian row penalty * e_t, so every
    Newton step leaves its strength exactly 0; the sum is 0 up to rounding.
    Each step solves by ``_ridge_solve`` with the floor eps * (m + 1), m
    games a row, as a game adds at most 1/4 to a Hessian entry; a team
    without a decisive game counts as unreached.
    """
    if penalty <= 0:
        raise ValueError("penalty must be positive")
    count, k, decisive = len(margin), n_teams + 1, margin != 0
    home, away = (keys + (np.arange(count) * k)[:, None] for keys in (home, away))
    reach = np.bincount(np.append(home[decisive], away[decisive]), minlength=count * k)
    seen = reach.reshape(count, k)[:, :n_teams] > 0
    no_decisive = ~seen.any(axis=1)
    if no_decisive.all():  # also where there is no row or no game: no Newton step
        return np.zeros((count, k)), np.zeros(count, dtype=int), np.full(count, np.nan)
    coef, iterations, norms = _bt_newton(home, away, margin > 0, decisive, seen,
                                         n_teams, penalty, tol, max_iter)
    norms[no_decisive] = np.nan
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
    equation), both 0 at the ridge optimum as for ``fit_bt_batch``, so a
    positive penalty gives positive definite systems. They solve by
    ``_ridge_solve`` above the floor sqrt(eps) * (m + 1); at penalty 0, or
    below the floor, least-norm rows fit a disconnected schedule or a
    confounded home advantage too, and a team without a game is unreached.
    """
    if penalty < 0:
        raise ValueError("penalty must be non-negative")
    (count, m), k = margin.shape, n_teams + 1
    block = (np.arange(count) * k)[:, None]
    hk, ak = home + block, away + block  # row block + team
    g = np.bincount(hk.ravel(), margin.ravel(), count * k).reshape(count, k)
    g -= np.bincount(ak.ravel(), margin.ravel(), count * k).reshape(count, k)
    g[:, n_teams] = margin.sum(axis=1, dtype=float)  # int64 sums wrap
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
    return _ridge_solve(G, g, penalty, np.finfo(float).eps ** 0.5 * (m + 1), seen)
