"""Paired-comparison models: win/loss (logit) and margin-of-victory.

Both models share the same structure, a per-team strength plus a home
advantage, and both impose a sum-to-zero constraint on strengths so the
translation-invariant parameterization is pinned down. The win/loss model
is fit by damped Newton on a ridge-penalized log-likelihood (the penalty
keeps tiny, separated training sets well-posed); the margin model has a
closed-form penalized least-squares solution.

Fits and scoring work on games in columnar form (``encode_games``); the
``Game``-based public functions encode their arguments and call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FitError
from .ingest import Game, encode_games

DEFAULT_PENALTY = 1.0
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100


@dataclass(frozen=True)
class BtFit:
    """Fitted win/loss model, strengths on the logit scale."""

    strengths: Mapping[str, float]
    home_adv: float
    penalty: float
    converged: bool
    iterations: int
    final_gradient_norm: float


@dataclass(frozen=True)
class MovFit:
    """Fitted margin model, strengths on the points scale."""

    strengths: Mapping[str, float]
    home_adv: float
    penalty: float
    residual_sd: float


def _encode_train(train: Sequence[Game], teams):
    if not train:
        raise ValueError("training set is empty")
    order = sorted(set(teams))
    try:
        return order, *encode_games(train, order)
    except KeyError as exc:
        raise ValueError(f"team {exc.args[0]!r} is outside the team set") from None


def _seen(home, away, n_teams: int):
    """Teams that play in the games, sorted, and the games re-indexed over them."""
    played = (np.bincount(home, minlength=n_teams) + np.bincount(away, minlength=n_teams)) > 0
    local = np.cumsum(played) - 1
    return np.flatnonzero(played), local[home], local[away]


def linear_predictor(coef, home, away):
    """Home edge ``strength(home) - strength(away) + home_adv`` of each game,
    for ``coef`` holding one strength per team and then the home advantage."""
    return coef[home] - coef[away] + coef[-1]


def win_probability(eta):
    """Home-win probability for home edge(s) ``eta`` on the logit scale."""
    return 1.0 / (1.0 + np.exp(-eta))


def bt_objective_gradient(train: Sequence[Game], teams, strengths: Mapping[str, float],
                          home_adv: float, penalty: float):
    """Penalized log-likelihood and its full gradient at given parameters.

    Gradient coordinates are sorted(teams) strengths followed by the home
    advantage. Tied games are ignored, exactly as in fitting.
    """
    order = sorted(set(teams))
    home, away, margin = encode_games(train, order)
    d = margin != 0  # decisive games
    theta = np.array([strengths[t] for t in order] + [home_adv], dtype=float)
    obj, grad, _ = _bt_obj_grad(theta, home[d], away[d], (margin[d] > 0).astype(float), penalty)
    return obj, grad


def _bt_obj_grad(theta, h, a, w, penalty):
    """Objective, gradient, and the win probabilities both came from."""
    n = len(theta) - 1
    beta, alpha = theta[:n], theta[n]
    eta = beta[h] - beta[a] + alpha
    # log pi = -log(1 + e^-eta), log(1-pi) = -log(1 + e^eta)
    loglik = -(w * np.logaddexp(0.0, -eta) + (1.0 - w) * np.logaddexp(0.0, eta)).sum()
    obj = loglik - 0.5 * penalty * (beta @ beta + alpha * alpha)
    pi = win_probability(eta)
    r = w - pi
    g_beta = np.bincount(h, weights=r, minlength=n) - np.bincount(a, weights=r, minlength=n)
    grad = np.empty(n + 1)
    grad[:n] = g_beta - penalty * beta
    grad[n] = r.sum() - penalty * alpha
    return obj, grad, pi


def _bt_hessian(pi, h, a, n, penalty):
    """Negated Hessian of the penalized log-likelihood (positive definite).

    One bincount over the keys ``h*n + a`` then ``a*n + h`` adds each
    pair's weights in the order of a pass over (h, a) and then one over
    (a, h), so the sums are the same floats either way.
    """
    wt = pi * (1.0 - pi)
    H = np.zeros((n + 1, n + 1))
    pair_keys = np.concatenate([h * n + a, a * n + h])
    pair_wt = np.bincount(pair_keys, weights=np.concatenate([wt, wt]), minlength=n * n)
    H[:n, :n] -= pair_wt.reshape(n, n)
    dh = np.bincount(h, weights=wt, minlength=n)
    da = np.bincount(a, weights=wt, minlength=n)
    diagonal = H.reshape(-1)[::n + 2]  # a view
    diagonal[:n] = dh + da
    H[:n, n] = dh - da
    H[n, :n] = H[:n, n]
    H[n, n] = wt.sum()
    diagonal += penalty
    return H


def fit_bt_arrays(home, away, margin, n_teams: int, penalty: float = DEFAULT_PENALTY,
                  tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """``fit_bt`` on columnar games over ``n_teams`` teams. Returns the
    coefficients (one strength per team, then the home advantage), the
    Newton iterations and the final gradient norm."""
    if penalty <= 0:
        raise ValueError("penalty must be positive")
    decisive = margin != 0
    if not decisive.any():
        raise FitError("training set has no decisive (non-tied) games")
    seen, h, a = _seen(home[decisive], away[decisive], n_teams)
    w = (margin[decisive] > 0).astype(float)
    n = len(seen)

    theta = np.zeros(n + 1)
    obj, grad, pi = _bt_obj_grad(theta, h, a, w, penalty)
    gnorm = float(np.sqrt(grad @ grad))  # np.linalg.norm's own formula, less overhead
    iterations = 0
    while gnorm > tol and iterations < max_iter:
        step = np.linalg.solve(_bt_hessian(pi, h, a, n, penalty), grad)
        # Newton steps from a centered iterate stay centered; re-center
        # anyway to shed float drift. A step counts as progress if it
        # raises the objective or, once objective changes fall below
        # float resolution near the optimum, shrinks the gradient.
        scale = 1.0
        while scale > 1e-12:
            cand = theta + scale * step
            cand[:n] -= cand[:n].sum() / n
            cand_obj, cand_grad, cand_pi = _bt_obj_grad(cand, h, a, w, penalty)
            cand_gnorm = float(np.sqrt(cand_grad @ cand_grad))
            if cand_obj > obj or cand_gnorm < gnorm:
                theta, obj, grad, gnorm, pi = cand, cand_obj, cand_grad, cand_gnorm, cand_pi
                break
            scale *= 0.5
        else:
            break  # no progress possible; gradient check below decides
        iterations += 1

    if gnorm > tol:
        raise FitError(
            f"Newton did not converge in {iterations} iterations "
            f"(gradient norm {gnorm:.3e} > tol {tol:.1e})",
            iterations=iterations,
            gradient_norm=gnorm,
        )
    coef = np.zeros(n_teams + 1)  # unseen teams keep strength 0
    coef[np.append(seen, n_teams)] = theta
    return coef, iterations, gnorm


def fit_bt(train: Sequence[Game], teams, penalty: float = DEFAULT_PENALTY,
           tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> BtFit:
    """Maximize the ridge-penalized Bradley-Terry likelihood.

    Tied games carry no win/loss information and are skipped. Teams in
    ``teams`` that never appear in ``train`` get strength exactly 0 (the
    penalty's center). Raises FitError if the gradient norm does not
    reach ``tol`` within ``max_iter`` Newton iterations.
    """
    order, *columns = _encode_train(train, teams)
    coef, iterations, gnorm = fit_bt_arrays(*columns, len(order), penalty, tol, max_iter)
    return BtFit(strengths=dict(zip(order, coef[:-1].tolist())), home_adv=float(coef[-1]),
                 penalty=penalty, converged=True, iterations=iterations,
                 final_gradient_norm=gnorm)


def fit_mov_arrays(home, away, margin, n_teams: int, penalty: float = DEFAULT_PENALTY):
    """``fit_mov`` on columnar games over ``n_teams`` teams. Returns the
    coefficients (one strength per team, then the home advantage) and the
    residual standard deviation."""
    if penalty < 0:
        raise ValueError("penalty must be non-negative")
    seen, h, a = _seen(home, away, n_teams)
    n, m, last = len(seen), len(h), len(seen) - 1
    y = margin.astype(float)

    # Coordinates: 0..last-1 the strengths of the first n-1 seen teams,
    # ``last`` the home advantage, n the last seen team's strength. A
    # game's design row is e_home - e_away + e_adv, so the normal equations
    # are the schedule's graph Laplacian bordered by home-minus-away counts
    # (Massey 1997). Every entry is an integer, exact in any summation order.
    hc, ac = np.where(h == last, n, h), np.where(a == last, n, a)
    k = n + 1
    pairs = np.bincount(hc * k + ac, minlength=k * k).reshape(k, k)
    home_n, away_n = np.bincount(hc, minlength=k), np.bincount(ac, minlength=k)
    G = (-(pairs + pairs.T)).astype(float)
    G.flat[::k + 1] = home_n + away_n
    G[last] = G[:, last] = home_n - away_n
    G[last, last] = m
    g = np.bincount(hc, y, k) - np.bincount(ac, y, k)
    g[last] = y.sum()
    # Strengths sum to zero: substituting the last one as the negated sum
    # of the others leaves the reduced system in the first n coordinates.
    G[:last] -= G[n]
    G[:, :last] -= G[:, n:]
    g[:last] -= g[n]
    A, b = G[:n, :n], g[:n]
    # penalty * sum(delta_i^2) in reduced coordinates is I + ones*ones^T
    A[:last, :last] += penalty * (np.eye(last) + np.ones((last, last)))
    try:
        coef = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        coef = np.linalg.lstsq(A, b, rcond=None)[0]

    full = np.zeros(n_teams + 1)  # unseen teams keep strength 0
    full[np.append(seen[:last], [n_teams, seen[last]])] = np.append(coef, -coef[:last].sum())
    resid = y - linear_predictor(full, home, away)
    return full, float(np.sqrt((resid @ resid) / m))


def fit_mov(train: Sequence[Game], teams, penalty: float = DEFAULT_PENALTY) -> MovFit:
    """Penalized least squares for the margin model, in closed form.

    Ties are legitimate observations here (margin 0). The ridge penalty
    applies to team strengths only, not the home advantage; with any
    positive penalty the normal equations are full rank.
    """
    order, *columns = _encode_train(train, teams)
    coef, residual_sd = fit_mov_arrays(*columns, len(order), penalty)
    return MovFit(strengths=dict(zip(order, coef[:-1].tolist())),
                  home_adv=float(coef[-1]), penalty=penalty, residual_sd=residual_sd)


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
    whatever was called. A single call applies to every game."""
    margin = np.asarray(margin)
    credit = np.where(margin == 0, 0.5, (margin > 0) == predicts_home_win)
    return float(credit.sum() / len(credit))


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
