"""Cross-sport summaries computed from accuracy curves: odds ratios
against the home-pick baseline, per-game accuracy slopes constrained
through a 0.5 intercept, slope ratios between leagues, and a
single-breakpoint piecewise-linear fit of the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .ingest import League

# A two-segment fit must beat the single line by more than this to count
# as a real breakpoint.
BREAKPOINT_MIN_IMPROVEMENT = 1e-12


def odds_ratio(model_acc: float, baseline_acc: float) -> float:
    """Odds of a correct model call relative to odds of a correct home pick."""
    for name, p in (("model_acc", model_acc), ("baseline_acc", baseline_acc)):
        if not 0.0 < p < 1.0:
            raise ValueError(f"{name} must be strictly between 0 and 1, got {p}")
    return (model_acc / (1.0 - model_acc)) / (baseline_acc / (1.0 - baseline_acc))


def constrained_slope(points: Iterable[tuple[float, float, float]],
                      max_fraction: float) -> float:
    """Least-squares slope of accuracy gain over games per team, through
    the no-information point (0 games, 0.5 accuracy).

    ``points`` are (fraction, games_per_team, accuracy) triples; only
    points with fraction <= max_fraction enter the fit. Returned in
    percentage points per game.
    """
    kept = [(x, y) for f, x, y in points if f <= max_fraction + 1e-12]
    if not kept:
        raise ValueError(f"no curve points at or below fraction {max_fraction}")
    xs = np.array([x for x, _ in kept])
    ys = np.array([y for _, y in kept])
    if np.any(xs <= 0):
        raise ValueError("games-per-team values must be positive")
    return 100.0 * float(xs @ (ys - 0.5)) / float(xs @ xs)


def informativeness_ratio(slope_a: float, slope_b: float) -> float:
    """How much more one league's games move accuracy than another's."""
    if slope_b == 0:
        raise ValueError("denominator slope is zero")
    return slope_a / slope_b


def informativeness_ratios(slopes_by_league: dict[str, dict[float, float]]
                           ) -> dict[tuple[str, str], dict[float, float]]:
    """``informativeness_ratio`` of each ordered pair (a, b) of distinct
    leagues at each slope column where a has a slope and b a non-zero one;
    pairs with no such column are left out."""
    table = {}
    for a, slopes_a in slopes_by_league.items():
        for b, slopes_b in slopes_by_league.items():
            cols = {col: informativeness_ratio(s, slopes_b[col])
                    for col, s in slopes_a.items() if a != b and slopes_b.get(col)}
            if cols:
                table[a, b] = cols
    return table


@dataclass(frozen=True)
class BreakpointFit:
    """Continuous two-segment least-squares fit y = a + b*x + c*(x-psi)+."""

    psi: float
    slope_left: float
    slope_right: float
    sse: float
    intercept: float
    line_sse: float
    meaningful: bool


# Grid candidates whose one-pass SSE is within this share of y.y of the
# smallest are re-fitted exactly. The exact minimizer is among them while
# the one-pass SSE stays within half this margin of the exact one; on
# random curves it stays within 1e-14 y.y.
BREAKPOINT_RECHECK = 1e-13


def fit_breakpoint(points: Iterable[tuple[float, float]]) -> BreakpointFit:
    """Grid search over candidate breakpoints with exact conditional least
    squares at each one.

    Candidates step through the observed x-range at resolution
    (x_max - x_min) / 1000, excluding the endpoints by one step, so the
    returned psi is strictly interior, unless the x values lie only a few
    ulps apart: the candidates then round onto the observed x values, the
    endpoints included, and psi can equal x_min (or x_max). Ties go to the
    smaller psi. The two-segment SSE can never exceed the single-line SSE
    because the line is the c = 0 member of the family.

    Every candidate's SSE comes from one pass: the hinge column's part
    orthogonal to the line's span, h, cuts the line's SSE by (h.r)^2/(h.h)
    for line residuals r. The candidates near the smallest are then
    fitted exactly, in grid order, and the first exact minimum is returned.
    """
    pts = sorted(points)
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    if len(np.unique(xs)) < 4:
        raise ValueError("need at least 4 points with distinct x")

    x_min, x_max = xs[0], xs[-1]
    step = (x_max - x_min) / 1000.0
    line_design = np.column_stack([np.ones_like(xs), xs])
    line_coef, _, _, _ = np.linalg.lstsq(line_design, ys, rcond=None)
    line_resid = ys - line_design @ line_coef
    line_sse = float(line_resid @ line_resid)

    psis = x_min + np.arange(1, 1000) * step
    hinges = np.maximum(xs - psis[:, None], 0.0)
    basis, _ = np.linalg.qr(line_design)
    hinges -= (hinges @ basis) @ basis.T
    with np.errstate(divide="ignore", invalid="ignore"):
        one_pass = line_sse - (hinges @ line_resid) ** 2 / np.einsum("ij,ij->i", hinges, hinges)
    one_pass[np.isnan(one_pass)] = line_sse  # a hinge inside the line's span adds nothing
    near = np.flatnonzero(one_pass <= one_pass.min() + BREAKPOINT_RECHECK * (ys @ ys))

    best = None
    for psi in psis[near].tolist():
        hinge = np.maximum(xs - psi, 0.0)
        design = np.column_stack([np.ones_like(xs), xs, hinge])
        coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
        resid = ys - design @ coef
        sse = float(resid @ resid)
        if best is None or sse < best[0]:
            best = (sse, psi, coef)

    sse, psi, coef = best
    return BreakpointFit(
        psi=float(psi),
        slope_left=float(coef[1]),
        slope_right=float(coef[1] + coef[2]),
        sse=sse,
        intercept=float(coef[0]),
        line_sse=line_sse,
        meaningful=(line_sse - sse) > BREAKPOINT_MIN_IMPROVEMENT,
    )


SLOPE_COLUMNS = (0.25, 0.375, 0.5, 0.875)
HEADLINE_FRACTION = 0.875  # of or_mov_875 and the informativeness ratios


@dataclass(frozen=True)
class SummaryReport:
    """Per-league digest of one or more seasons' accuracy curves."""

    seasons_used: tuple[str, ...]
    or_mov_875: float
    per_season_or: dict[str, float]
    slopes: dict[float, float]
    informativeness_ratios: dict[str, float]
    breakpoint: BreakpointFit | None
    curve: list[tuple[float, ...]]  # aggregate_league_curve(rows)
    # Why an odds ratio above is NaN, keyed "or_mov_875" or
    # "per_season_or.<season>"; see summarize_league.
    undefined: dict[str, str] = field(default_factory=dict)


_LEAGUES = tuple(league.value for league in League)
# What CurveRow.out_of_range asks of a field; only a failed check's message is formatted.
_ONE_OF_LEAGUES = f"one of {', '.join(_LEAGUES)}"
_FINITE = "finite and non-negative"


@dataclass(frozen=True)
class CurveRow:
    """One (league, season, fraction) row of a curve table."""

    league: str
    season: str
    fraction: float
    games_per_team: float
    mean_bt_acc: float
    sd_bt_acc: float
    mean_mov_acc: float
    sd_mov_acc: float
    baseline_acc: float
    bt_failures: int = 0
    mov_failures: int = 0

    def out_of_range(self) -> str | None:
        """Why this row holds a value that ``curve`` never writes, None if
        none. ``curve``'s games_per_team lies between 0.5 / (season games)
        and the season's games; [1e-9, 1e9] keeps its squares in the slope
        and breakpoint fits clear of float underflow and overflow."""
        checks = (("league", self.league in _LEAGUES, _ONE_OF_LEAGUES),
                  ("fraction", 0.0 < self.fraction < 1.0, "in (0, 1)"),
                  ("games_per_team", 1e-9 <= self.games_per_team <= 1e9, "in [1e-9, 1e9]"),
                  ("mean_bt_acc", 0.0 <= self.mean_bt_acc <= 1.0, "in [0, 1]"),
                  ("mean_mov_acc", 0.0 <= self.mean_mov_acc <= 1.0, "in [0, 1]"),
                  ("baseline_acc", 0.0 <= self.baseline_acc <= 1.0, "in [0, 1]"),
                  ("sd_bt_acc", 0.0 <= self.sd_bt_acc < math.inf, _FINITE),
                  ("sd_mov_acc", 0.0 <= self.sd_mov_acc < math.inf, _FINITE),
                  ("bt_failures", 0.0 <= self.bt_failures < math.inf, _FINITE),
                  ("mov_failures", 0.0 <= self.mov_failures < math.inf, _FINITE))
        for name, ok, want in checks:
            if not ok:
                return f"{name} {getattr(self, name)!r} is not {want}"
        return None


def aggregate_league_curve(rows: Sequence[CurveRow]):
    """Average per-season curves into one mean curve per fraction.

    Returns a list of (fraction, mean games_per_team, mean mov accuracy,
    mean bt accuracy, mean baseline, min mov accuracy, max mov accuracy)
    sorted by fraction. Each mean sums its rows in season order, so the
    result does not depend on the order of ``rows``.

    A fraction's four columns form one C-contiguous (4, seasons) block:
    ``mean(axis=1)`` sums each row pairwise along contiguous memory, as
    ``np.mean`` of that column alone does, so each mean has its bits.
    (``np.add.reduceat`` and ``sum() / n`` sum in other orders.) The min
    and max are Python's: of two equal zeros it keeps the first, where
    numpy's can return -0.0.
    """
    by_fraction: dict[float, list[CurveRow]] = {}
    for r in sorted(rows, key=lambda r: r.season):
        by_fraction.setdefault(r.fraction, []).append(r)
    out = []
    for f in sorted(by_fraction):
        grp = by_fraction[f]
        movs = [r.mean_mov_acc for r in grp]
        block = np.array([[r.games_per_team for r in grp], movs,
                          [r.mean_bt_acc for r in grp], [r.baseline_acc for r in grp]])
        games, mov, bt, base = block.mean(axis=1).tolist()
        out.append((f, games, mov, bt, base, min(movs), max(movs)))
    return out


def _odds_ratio_or_reason(model_acc: float, baseline_acc: float) -> tuple[float, str | None]:
    """The odds ratio and None, or NaN and the reason it is undefined: a
    saturated accuracy (exactly 0 or 1) has no finite odds."""
    try:
        return odds_ratio(model_acc, baseline_acc), None
    except ValueError as exc:
        return float("nan"), f"undefined: {exc}"


def summarize_league(league: str, rows: Sequence[CurveRow],
                     slopes_by_league: dict[str, dict[float, float]] | None = None
                     ) -> SummaryReport:
    """Build the per-league summary from its curve rows.

    The headline odds ratio compares season-pooled mean MOV accuracy at
    HEADLINE_FRACTION to the pooled home-pick baseline (NaN, with the
    reason in ``undefined``, if no row lies there or an accuracy is 0 or
    1); each season's odds ratio is kept the same way. Slopes use the
    aggregated mean curve. ``slopes_by_league`` (when given) supplies the
    other leagues' slopes for the informativeness ratios at
    HEADLINE_FRACTION.
    """
    seasons = tuple(sorted({r.season for r in rows}))
    agg = aggregate_league_curve(rows)

    at_headline = [(mov, base) for f, _, mov, _, base, _, _ in agg
                   if abs(f - HEADLINE_FRACTION) < 1e-9]
    per_season_or = {}
    undefined = {}
    missing = float("nan"), f"undefined: no curve row at fraction {HEADLINE_FRACTION}"
    headline = {}  # each season's first row at HEADLINE_FRACTION
    for r in rows:
        if abs(r.fraction - HEADLINE_FRACTION) < 1e-9:
            headline.setdefault(r.season, (r.mean_mov_acc, r.baseline_acc))
    for s in seasons:
        per_season_or[s], reason = (_odds_ratio_or_reason(*headline[s]) if s in headline
                                    else missing)
        if reason:
            undefined[f"per_season_or.{s}"] = reason
    or_875, reason = _odds_ratio_or_reason(*at_headline[0]) if at_headline else missing
    if reason:
        undefined["or_mov_875"] = reason

    triples = [(f, x, mov) for f, x, mov, _, _, _, _ in agg]
    slopes = {}
    for col in SLOPE_COLUMNS:
        if any(f <= col + 1e-12 for f, _, _ in triples):
            slopes[col] = constrained_slope(triples, col)

    table = informativeness_ratios({**(slopes_by_league or {}), league: slopes})
    ratios = {f"{a}/{b}": cols[HEADLINE_FRACTION] for (a, b), cols in table.items()
              if a == league and HEADLINE_FRACTION in cols}

    xy = [(x, mov) for _, x, mov, _, _, _, _ in agg]
    breakpoint_fit = None
    if len({x for x, _ in xy}) >= 4:
        breakpoint_fit = fit_breakpoint(xy)

    return SummaryReport(
        seasons_used=seasons,
        or_mov_875=or_875,
        per_season_or=per_season_or,
        slopes=slopes,
        informativeness_ratios=ratios,
        breakpoint=breakpoint_fit,
        curve=agg,
        undefined=undefined,
    )
