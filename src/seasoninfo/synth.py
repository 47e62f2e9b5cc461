"""Synthetic seasons with known ground truth.

One generative story serves both models: a game's margin is Gaussian on
the points scale around a linear function of logit-scale strengths, and
the win indicator is the sign of the (rounded) margin, so ties can occur
and win/margin data never contradict each other. Because the truth is
known, the expected accuracy of the oracle predictor is computable in
closed form and bounds what any fitted model can achieve.
"""

from __future__ import annotations

import datetime as dt
import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ingest import MAX_SCORE, League, Season

FIRST_DAY = dt.date(2000, 1, 1)  # of a synthetic schedule, which plays n_teams // 2 games a day


def _finite_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, that a float holds
    finitely: an int too large for a float, NaN and the infinities all fail
    the bound."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class SynthSpec:
    """Ground truth for a synthetic league.

    Exactly one of ``strengths`` (explicit logit-scale map) or
    ``strength_sd`` (i.i.d. Normal(0, sd) draws) must be given.
    """

    n_teams: int
    games_per_team: int
    seed: int
    home_adv: float = 0.0
    mov_scale: float = 7.0
    mov_noise_sd: float = 12.0
    strengths: dict[str, float] | None = None
    strength_sd: float | None = None

    def __post_init__(self):
        for name in ("n_teams", "games_per_team", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            # held as int: a numpy int can wrap below, and timedelta refuses one
            object.__setattr__(self, name, int(value))
        if self.n_teams < 2:
            raise ConfigError("need at least 2 teams")
        if self.games_per_team < 1:
            raise ConfigError("need at least 1 game per team")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if (self.n_teams * self.games_per_team) % 2 != 0:
            raise ConfigError(
                f"{self.n_teams} teams x {self.games_per_team} games each is an "
                "odd number of team-slots; no schedule exists"
            )
        last_day = (self.n_teams * self.games_per_team // 2 - 1) // max(1, self.n_teams // 2)
        if last_day > (dt.date.max - FIRST_DAY).days:
            raise ConfigError(f"a schedule of {self.n_teams} teams x {self.games_per_team} "
                              f"games each runs past {dt.date.max}")
        for name in ("home_adv", "mov_scale", "mov_noise_sd", "strength_sd"):
            value = getattr(self, name)
            if not (_finite_real(value) or name == "strength_sd" and value is None):
                raise ConfigError(f"{name} must be a finite real number, got {value!r}")
        if self.mov_scale <= 0 or self.mov_noise_sd <= 0:
            raise ConfigError("mov_scale and mov_noise_sd must be positive")
        if (self.strengths is None) == (self.strength_sd is None):
            raise ConfigError("give exactly one of strengths or strength_sd")
        if self.strengths is not None and not isinstance(self.strengths, Mapping):
            raise ConfigError("strengths must map team ids to strengths, got a "
                              f"{type(self.strengths).__name__}")
        if self.strengths is not None and len(self.strengths) != self.n_teams:
            raise ConfigError(
                f"strengths map has {len(self.strengths)} entries for {self.n_teams} teams"
            )
        for team, value in (self.strengths or {}).items():  # ids the CSV carries back unchanged
            if (not isinstance(team, str) or not team or team != team.strip() or "\r" in team
                    or any("\ud800" <= c <= "\udfff" for c in team)):
                raise ConfigError(f"team id {team!r} is not a str, is empty, has leading or "
                                  "trailing whitespace, holds a carriage return or does not "
                                  "encode to UTF-8")
            if not _finite_real(value):
                raise ConfigError(f"strength of team {team!r} must be a finite real number, "
                                  f"got {value!r}")
        if self.strength_sd is not None and self.strength_sd < 0:
            raise ConfigError("strength_sd must be non-negative")


@dataclass(frozen=True)
class SynthTruth:
    """Realized generator parameters emitted alongside a synthetic season."""

    strengths: dict[str, float]
    home_adv: float
    mov_scale: float
    mov_noise_sd: float
    seed: int
    n_teams: int
    games_per_team: int


def _team_ids(spec: SynthSpec) -> list[str]:
    if spec.strengths is not None:
        return sorted(spec.strengths)
    width = len(str(spec.n_teams))
    return [f"T{i + 1:0{width}d}" for i in range(spec.n_teams)]


def _pair_slots(slots: list[str], rng: np.random.Generator) -> list[tuple[str, str]] | None:
    """Pair up team slots so no team meets itself; None if this shuffle
    cannot be repaired."""
    slots = list(slots)
    rng.shuffle(slots)
    for i in range(0, len(slots), 2):
        if slots[i] == slots[i + 1]:
            for j in range(i + 2, len(slots)):
                if slots[j] != slots[i]:
                    slots[i + 1], slots[j] = slots[j], slots[i + 1]
                    break
            else:
                return None
    return [(slots[i], slots[i + 1]) for i in range(0, len(slots), 2)]


def generate_season(spec: SynthSpec) -> tuple[Season, SynthTruth]:
    """Draw a schedule and outcomes; fully determined by ``spec.seed``.

    Draw order is fixed (strengths, schedule, home/away sides, margin
    noise) so the same spec always yields the same season. Each team
    plays exactly ``games_per_team`` games against uniformly drawn
    opponents with uniformly drawn sides.
    """
    rng = np.random.default_rng(spec.seed)
    ids = _team_ids(spec)
    if spec.strengths is not None:
        strengths = {t: float(spec.strengths[t]) for t in ids}
    else:
        draws = rng.normal(0.0, spec.strength_sd, spec.n_teams)
        strengths = {t: float(v) for t, v in zip(ids, draws)}

    slots = [t for t in ids for _ in range(spec.games_per_team)]
    pairs = None
    for _ in range(100):
        pairs = _pair_slots(slots, rng)
        if pairs is not None:
            break
    if pairs is None:
        raise ConfigError("could not build a self-play-free schedule")

    sides = rng.integers(0, 2, size=len(pairs))
    matchups = [(p[1], p[0]) if s else p for p, s in zip(pairs, sides)]

    eta = np.array([strengths[h] - strengths[a] + spec.home_adv for h, a in matchups])
    noise = rng.normal(0.0, spec.mov_noise_sd, len(matchups))
    with np.errstate(over="ignore"):
        margins = np.rint(spec.mov_scale * eta + noise)
    if not np.all(np.abs(margins) < MAX_SCORE + 1.0):  # 2.0**63; NaN fails too
        raise ConfigError(f"a margin exceeds the largest score {MAX_SCORE}; "
                          "lower mov_scale, mov_noise_sd or the strengths")
    margins = margins.astype(int).tolist()

    per_day = max(1, spec.n_teams // 2)
    rows = tuple((FIRST_DAY + dt.timedelta(days=i // per_day), home, away, max(m, 0), max(-m, 0))
                 for i, ((home, away), m) in enumerate(zip(matchups, margins)))
    season = Season(League.OTHER, f"synth-{spec.seed}", rows)
    truth = SynthTruth(
        strengths=strengths,
        home_adv=spec.home_adv,
        mov_scale=spec.mov_scale,
        mov_noise_sd=spec.mov_noise_sd,
        seed=spec.seed,
        n_teams=spec.n_teams,
        games_per_team=spec.games_per_team,
    )
    return season, truth


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def outcome_probabilities(spec_or_truth, home: str, away: str) -> tuple[float, float, float]:
    """(P(home win), P(tie), P(home loss)) for one matchup under the
    generating margin model, accounting for integer rounding."""
    s = spec_or_truth.strengths
    if s is None:
        raise ValueError("need explicit strengths; generate the season first")
    mean = spec_or_truth.mov_scale * (s[home] - s[away] + spec_or_truth.home_adv)
    sd = spec_or_truth.mov_noise_sd
    p_win = 1.0 - _norm_cdf((0.5 - mean) / sd)
    p_loss = _norm_cdf((-0.5 - mean) / sd)
    return p_win, 1.0 - p_win - p_loss, p_loss


def bayes_accuracy(spec: SynthSpec | SynthTruth) -> float:
    """Expected credit of the predictor that knows the true parameters,
    averaged over the uniform ordered-pair schedule distribution. Ties
    earn 0.5 whatever is predicted, matching the evaluation metric.
    """
    if spec.strengths is None:
        raise ValueError("bayes_accuracy needs explicit strengths")
    ids = sorted(spec.strengths)
    total = 0.0
    count = 0
    for home in ids:
        for away in ids:
            if home == away:
                continue
            p_win, p_tie, p_loss = outcome_probabilities(spec, home, away)
            total += max(p_win, p_loss) + 0.5 * p_tie
            count += 1
    return total / count
