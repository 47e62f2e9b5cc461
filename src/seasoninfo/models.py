"""Paired-comparison models: win/loss (logit) and margin-of-victory.

Both models share the same structure, a per-team strength plus a home
advantage. Neither imposes a constraint on the strengths: the ridge
penalty pins down the otherwise translation-invariant parameterization,
and at its optimum the strengths sum to zero and a team that no counted
game reaches has strength exactly zero. The win/loss model is fit by
damped Newton on a ridge-penalized log-likelihood (the penalty keeps
tiny, separated training sets well-posed); the margin model has a
closed-form penalized least-squares solution.

Fits and scoring work on games in columnar form (``encode_rows``). The
``Game``-based public fits encode their arguments and make single-row
calls of the many-replicate fits in ``batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .batch import (
    DEFAULT_MAX_ITER,
    DEFAULT_PENALTY,
    DEFAULT_TOL,
    _bt_gradient,
    _bt_objective,
    fit_bt_batch,
    fit_mov_batch,
    linear_predictor,
    win_probability,
)
from .errors import FitError
from .ingest import Game, encode_rows, game_rows


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
