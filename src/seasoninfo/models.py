"""Paired-comparison models: win/loss (Bradley-Terry, logit) and
margin-of-victory.

Both models share one structure: a strength per team plus a home
advantage, so a game's home edge is strength(home) - strength(away) +
home_adv. Neither imposes a constraint on the strengths: the ridge penalty
on them pins the otherwise translation-invariant parameterization. At the
ridge optimum a team that no counted game reaches has the equation
penalty * s = 0, so its strength is exactly 0, and the teams' equations
sum, every game term cancelling, to penalty * sum(s) = 0, so the strengths
sum to zero. The win/loss
model is fit by damped Newton on a ridge-penalized log-likelihood (the
penalty keeps tiny, separated training sets well-posed); the margin model
has a closed-form penalized least-squares solution.

Fits and scoring work on games in columnar form (``encode_rows`` indices
and margins). Each row of (K, m) game columns is one replicate's training
set, fitted on all n_teams + 1 parameters: the win/loss fit runs Newton in
lockstep over the rows, each with its own step halving, and the margin fit
solves one (n_teams + 1)² system per row; both solve by ``_ridge_solve``.
Every per-row sum runs in its one-row order, so a row's result is, bit for
bit, the one it gets when fitted alone. The ``Game``-based ``fit_bt`` and
``fit_mov`` encode their arguments and make single-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FitError
from .ingest import Game, encode_rows, game_rows

DEFAULT_PENALTY = 1.0
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100


@dataclass(frozen=True)
class BtFit:
    """Fitted win/loss model, strengths on the logit scale."""

    strengths: Mapping[str, float]
    home_adv: float
    iterations: int
    final_gradient_norm: float


@dataclass(frozen=True)
class MovFit:
    """Fitted margin model, strengths on the points scale."""

    strengths: Mapping[str, float]
    home_adv: float
    residual_sd: float


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


def _pair_keys(home, away, k):
    """Keys of each game's (home, away) and (away, home) entries in a
    (K, k, k) stack, from (K, m) team indices: row i's (t, u) entry is key
    i k² + t k + u, in int32 unless K k² needs 64 bits."""
    dtype = np.int32 if len(home) * k * k < 2**31 else np.int64
    base = (np.arange(len(home), dtype=dtype) * k * k)[:, None]
    pairs = [np.multiply(x, k, dtype=dtype) for x in (home, away)]
    for keys, x in zip(pairs, (away, home)):
        keys += x
        keys += base
    return pairs


def _bt_hessian(pi, h, a, pairs, n, penalty):
    """Negated Hessians (positive definite) of the penalized log-likelihood
    for rows of (G, m) games over ``n`` teams each, ``h`` and ``a`` indexing
    the flattened (G, n+1) parameters; (G, n+1, n+1). Each row's
    off-diagonal sums run over its (h, a) and then its (a, h) ``pairs`` keys
    from ``_pair_keys``, in game order, by two ``np.subtract.at`` passes."""
    count, k = len(pi), n + 1
    wt = pi * (1.0 - pi)
    H = np.zeros((count, k, k))
    for keys in pairs:
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


def _bt_newton(h, a, pairs, w, decisive, seen, n, penalty, tol, max_iter):
    """Damped Newton in lockstep over rows of games over ``n`` teams, keyed as
    for ``linear_predictor`` and by ``pairs`` for the Hessian; ``seen`` (K, n)
    marks the teams of each row's decisive games. A finished row leaves: the
    live rows' games and keys are gathered into new arrays. Returns each row's
    parameters (strengths, home advantage), iterations and gradient norm."""
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
            games, pairs, pi = [x[keep] for x in games], [x[keep] for x in pairs], pi[keep]
            moved = (keep - np.arange(len(keep)))[:, None]  # rows each live row moves up
            for keys, stride in zip(games[:2] + pairs, (width, width, width**2, width**2)):
                keys -= moved * stride
            theta, grad, gnorm, ids, iters, live, seen = (
                x[keep] for x in (theta, grad, gnorm, ids, iters, live, seen))
        step = _ridge_solve(_bt_hessian(pi, *games[:2], pairs, n, penalty), grad, penalty,
                            floor, seen)
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
    """Ridge-penalized Bradley-Terry fit (``fit_bt``) of each row of (K, m)
    game columns over ``n_teams`` teams, by damped Newton run in lockstep
    over the rows. Tied games carry no weight. Returns the coefficients
    (K, n_teams + 1: strengths, then the home advantage), the Newton
    iterations (K,) and the final gradient norms (K,): a row converged if
    its norm is at most ``tol``, NaN without a decisive game.

    A team that no decisive game reaches has gradient -penalty * 0 and
    Hessian row penalty * e_t, so every Newton step leaves its strength
    exactly 0; the strengths' sum is 0 up to rounding. Each step solves by ``_ridge_solve`` with the floor eps * (m + 1), m
    games a row, as a game adds at most 1/4 to a Hessian entry; a team
    without a decisive game counts as unreached.
    """
    if penalty <= 0:
        raise ValueError("penalty must be positive")
    count, k, decisive = len(margin), n_teams + 1, margin != 0
    h, a = (keys + (np.arange(count) * k)[:, None] for keys in (home, away))
    reach = np.bincount(np.append(h[decisive], a[decisive]), minlength=count * k)
    seen = reach.reshape(count, k)[:, :n_teams] > 0
    no_decisive = ~seen.any(axis=1)
    if no_decisive.all():  # also where there is no row or no game: no Newton step
        return np.zeros((count, k)), np.zeros(count, dtype=int), np.full(count, np.nan)
    coef, iterations, norms = _bt_newton(h, a, _pair_keys(home, away, k), margin > 0, decisive,
                                         seen, n_teams, penalty, tol, max_iter)
    norms[no_decisive] = np.nan
    return coef, iterations, norms


def fit_mov_batch(home, away, margin, n_teams: int, penalty: float = DEFAULT_PENALTY):
    """Closed-form ridge margin fit (``fit_mov``) of each row of (K, m) game
    columns over ``n_teams`` teams: coefficients (K, n_teams + 1: strengths,
    then home advantage); unseen teams get strength 0.

    A game's design row is e_home - e_away + e_adv, so the normal equations
    are the schedule's graph Laplacian bordered by home-minus-away counts
    (Massey 1997), built game by game: bincounts of each team's home and
    away games and an ``np.subtract.at`` pass per side over ``_pair_keys``
    count in exact integers, so in any order. They gain 1 on each unseen
    team's diagonal and the seen teams' outer product (the seen strengths'
    sum in each seen team's equation), both 0 at the ridge optimum, so a
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
    home_n, away_n = (np.bincount(x.ravel(), minlength=count * k).reshape(count, k)
                      for x in (hk, ak))
    seen = (home_n + away_n)[:, :n_teams] > 0
    G = np.empty((count, k, k))  # the border and the diagonal are set below
    np.logical_and(seen[:, :, None], seen[:, None, :], out=G[:, :n_teams, :n_teams])
    for keys in _pair_keys(home, away, k):
        np.subtract.at(G.reshape(-1), keys.ravel(), 1.0)
    G.reshape(count, -1)[:, ::k + 1] = home_n + away_n + (1.0 + penalty)
    G[:, n_teams] = G[:, :, n_teams] = home_n - away_n
    G[:, n_teams, n_teams] = m
    return _ridge_solve(G, g, penalty, np.finfo(float).eps ** 0.5 * (m + 1), seen)


def _encode_train(train: Sequence[Game], teams):
    if not train:
        raise ValueError("training set is empty")
    order = sorted(set(teams))
    try:
        return order, *(col[None] for col in encode_rows(game_rows(train), order))
    except KeyError as exc:
        raise ValueError(f"team {exc.args[0]!r} is outside the team set") from None


def bt_objective_gradient(train: Sequence[Game], teams, strengths: Mapping[str, float],
                          home_adv: float, penalty: float):
    """Penalized log-likelihood and its full gradient at given parameters.

    Gradient coordinates are sorted(teams) strengths followed by the home
    advantage. Tied games are ignored, exactly as in fitting.
    """
    order, home, away, margin = _encode_train(train, teams)
    theta = np.array([[strengths[t] for t in order] + [home_adv]], dtype=float)
    games = (home, away, margin > 0, margin != 0)
    grad, _ = _bt_gradient(theta, *games, penalty, np.empty(home.shape))
    return float(_bt_objective(theta, [0], *games, penalty)[0]), grad[0]


def fit_bt(train: Sequence[Game], teams, penalty: float = DEFAULT_PENALTY,
           tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> BtFit:
    """Maximize the ridge-penalized Bradley-Terry likelihood.

    Tied games carry no win/loss information and are skipped. Teams in
    ``teams`` that never appear in ``train`` get strength exactly 0 (the
    penalty's center). Raises FitError if the gradient norm does not
    reach ``tol`` within ``max_iter`` Newton iterations.
    """
    order, *columns = _encode_train(train, teams)
    coef, iterations, gnorm = fit_bt_batch(*columns, len(order), penalty, tol, max_iter)
    iterations, gnorm = int(iterations[0]), float(gnorm[0])
    if np.isnan(gnorm):
        raise FitError("training set has no decisive (non-tied) games")
    if gnorm > tol:
        raise FitError(
            f"Newton did not converge in {iterations} iterations "
            f"(gradient norm {gnorm:.3e} > tol {tol:.1e})",
            iterations=iterations,
            gradient_norm=gnorm,
        )
    return BtFit(strengths=dict(zip(order, coef[0, :-1].tolist())), home_adv=float(coef[0, -1]),
                 iterations=iterations, final_gradient_norm=gnorm)


def fit_mov(train: Sequence[Game], teams, penalty: float = DEFAULT_PENALTY) -> MovFit:
    """Penalized least squares for the margin model, in closed form.

    Ties are legitimate observations here (margin 0). The ridge penalty
    applies to team strengths only, not the home advantage; with any
    positive penalty the normal equations are full rank. Penalty 0 gives a
    least-squares fit even where the games leave some strengths unidentified.
    """
    order, home, away, margin = _encode_train(train, teams)
    coef = fit_mov_batch(home, away, margin, len(order), penalty)
    resid = margin[0].astype(float) - linear_predictor(coef, home, away)[0]
    return MovFit(strengths=dict(zip(order, coef[0, :-1].tolist())), home_adv=float(coef[0, -1]),
                  residual_sd=float(np.sqrt((resid @ resid) / len(resid))))


def _home_edge(fit, game: Game) -> float:
    return fit.strengths.get(game.home, 0.0) - fit.strengths.get(game.away, 0.0) + fit.home_adv


def predict_bt(fit: BtFit, game: Game) -> float:
    """Home-team win probability; unseen teams count as strength 0."""
    return float(win_probability(_home_edge(fit, game)))


def predict_mov(fit: MovFit, game: Game) -> float:
    """Expected home margin; unseen teams count as strength 0."""
    return _home_edge(fit, game)


def bt_predicts_home_win(pi):
    """Decision rule for the win/loss model; exactly 0.5 picks the road
    team. Elementwise on arrays."""
    return pi > 0.5


def mov_predicts_home_win(mu):
    """Decision rule for the margin model; exactly 0 picks the road team.
    Elementwise on arrays."""
    return mu > 0.0


def score(predicts_home_win, margin) -> float:
    """Mean credit of home-win calls against home margins (or their signs):
    1 for calling the winner, 0 for calling the loser and 0.5 for a tie
    whatever was called. A single call applies to every game. Rows of 2-D
    arguments score separately, into a list."""
    margin = np.asarray(margin)
    credit = np.where(margin == 0, 0.5, (margin > 0) == predicts_home_win)
    return (credit.sum(axis=-1) / credit.shape[-1]).tolist()


def info_metric(predictions: Iterable[tuple[bool, int]]) -> float:
    """Fraction of games whose outcome the model called correctly.

    Each item pairs the binary home-win prediction with the actual
    outcome as the sign of the home margin (+1 win, 0 tie, -1 loss).
    Ties earn 0.5 credit no matter what was predicted, so both models
    stay comparable on identical test sets.
    """
    pairs = list(predictions)
    for _, outcome in pairs:
        if outcome not in (-1, 0, 1):
            raise ValueError(f"outcome must be -1, 0, or +1, got {outcome!r}")
    if not pairs:
        raise ValueError("no predictions to score")
    called, outcomes = zip(*pairs)
    return score(np.array(called, dtype=bool), np.array(outcomes))
