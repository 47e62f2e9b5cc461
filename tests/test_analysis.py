from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seasoninfo import (
    BreakpointFit,
    CurveRow,
    constrained_slope,
    fit_breakpoint,
    informativeness_ratio,
    odds_ratio,
    summarize_league,
)
from seasoninfo.analysis import BREAKPOINT_MIN_IMPROVEMENT, aggregate_league_curve

probs = st.floats(min_value=0.01, max_value=0.99)


class TestOddsRatio:
    def test_direct_formula(self):
        assert odds_ratio(0.7, 0.6) == pytest.approx(1.5556, abs=1e-4)

    @given(probs)
    def test_identity(self, p):
        assert odds_ratio(p, p) == pytest.approx(1.0)

    @given(probs, probs)
    def test_reciprocal(self, a, b):
        assert odds_ratio(a, b) * odds_ratio(b, a) == pytest.approx(1.0)

    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_domain_errors(self, a, b):
        with pytest.raises(ValueError):
            odds_ratio(a, b)


class TestConstrainedSlope:
    def test_single_point(self):
        slope = constrained_slope([(0.875, 14.0, 0.70)], max_fraction=0.875)
        assert slope == pytest.approx(1.43, abs=0.005)

    def test_two_points_closed_form(self):
        pts = [(0.25, 4.0, 0.70), (0.5, 8.0, 0.90)]
        assert constrained_slope(pts, max_fraction=0.5) == pytest.approx(5.0)

    def test_fraction_filter(self):
        pts = [(0.25, 4.0, 0.70), (0.875, 14.0, 0.90)]
        only_low = constrained_slope(pts, max_fraction=0.25)
        assert only_low == pytest.approx(100 * 4 * 0.2 / 16)

    def test_errors(self):
        with pytest.raises(ValueError):
            constrained_slope([(0.875, 14.0, 0.7)], max_fraction=0.5)
        with pytest.raises(ValueError):
            constrained_slope([(0.25, 0.0, 0.7)], max_fraction=0.5)

    @given(st.lists(st.tuples(st.floats(0.1, 0.9), st.floats(1, 100), probs),
                    min_size=1, max_size=10))
    def test_order_invariance_and_scaling(self, pts):
        base = constrained_slope(pts, max_fraction=1.0)
        assert constrained_slope(list(reversed(pts)), max_fraction=1.0) == pytest.approx(base)
        doubled = [(f, x, 0.5 + 2 * (y - 0.5)) for f, x, y in pts]
        assert constrained_slope(doubled, max_fraction=1.0) == pytest.approx(2 * base)


class TestInformativenessRatio:
    def test_published_last_column_ratios(self):
        # The per-game gain ratios behind "football games tell you the
        # most": NFL/NBA about 4, NFL/MLB about 26 from the same column.
        assert informativeness_ratio(1.4, 0.34) == pytest.approx(4.1, abs=0.05)
        assert informativeness_ratio(1.4, 0.053) == pytest.approx(26.4, abs=0.05)

    @given(st.floats(0.01, 100))
    def test_identity(self, s):
        assert informativeness_ratio(s, s) == 1.0

    @given(st.floats(0.01, 100), st.floats(0.01, 100))
    def test_reciprocal(self, a, b):
        assert informativeness_ratio(a, b) * informativeness_ratio(b, a) == pytest.approx(1.0)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            informativeness_ratio(1.0, 0.0)


def exact_grid_breakpoint(points):
    """``fit_breakpoint`` as an exact least-squares fit at every grid point."""
    pts = sorted(points)
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    x_min, x_max = xs[0], xs[-1]
    step = (x_max - x_min) / 1000.0
    line_design = np.column_stack([np.ones_like(xs), xs])
    line_coef = np.linalg.lstsq(line_design, ys, rcond=None)[0]
    line_resid = ys - line_design @ line_coef
    line_sse = float(line_resid @ line_resid)
    best = None
    for j in range(1, 1000):
        psi = x_min + j * step
        design = np.column_stack([np.ones_like(xs), xs, np.maximum(xs - psi, 0.0)])
        coef = np.linalg.lstsq(design, ys, rcond=None)[0]
        resid = ys - design @ coef
        sse = float(resid @ resid)
        if best is None or sse < best[0]:
            best = (sse, psi, coef)
    sse, psi, coef = best
    return BreakpointFit(psi=float(psi), slope_left=float(coef[1]),
                         slope_right=float(coef[1] + coef[2]), sse=sse,
                         intercept=float(coef[0]), line_sse=line_sse,
                         meaningful=(line_sse - sse) > BREAKPOINT_MIN_IMPROVEMENT)


class TestFitBreakpoint:
    def test_recovers_exact_two_segment_data(self):
        xs = np.arange(5.0, 81.0, 5.0)
        ys = 0.5 + 0.004 * np.minimum(xs, 30.0)
        bp = fit_breakpoint(zip(xs, ys))
        step = (80.0 - 5.0) / 1000.0
        assert abs(bp.psi - 30.0) <= step + 1e-9
        assert bp.sse <= 1e-6
        assert bp.slope_left == pytest.approx(0.004, abs=1e-4)
        assert bp.slope_right == pytest.approx(0.0, abs=1e-4)
        assert bp.meaningful

    def test_straight_line_flags_no_breakpoint(self):
        xs = np.arange(5.0, 81.0, 5.0)
        bp = fit_breakpoint(zip(xs, 0.5 + 0.002 * xs))
        assert bp.line_sse - bp.sse <= 1e-12
        assert not bp.meaningful

    def test_plateau_curve_puts_knee_in_expected_window(self):
        # Saturating accuracy curve shaped like a most-predictable-league
        # season: rises fast, flat after roughly 30 games per team.
        xs = np.array([10.25, 20.5, 30.75, 41.0, 51.25, 61.5, 71.75])
        ys = 0.70 - 0.13 * np.exp(-xs / 15.0)
        bp = fit_breakpoint(zip(xs, ys))
        assert 25.0 <= bp.psi <= 30.0
        assert bp.meaningful

    def test_needs_four_distinct_x(self):
        with pytest.raises(ValueError):
            fit_breakpoint([(1.0, 0.5), (2.0, 0.6), (3.0, 0.7)])
        with pytest.raises(ValueError):
            fit_breakpoint([(1.0, 0.5), (2.0, 0.6), (2.0, 0.7), (2.0, 0.8)])

    def test_x_a_few_ulps_apart(self):
        # Every hinge then lies in the line's span: the one-pass cut is 0/0.
        xs = [1.0 + k * 2.220446049250313e-16 for k in range(4)]
        bp = fit_breakpoint(zip(xs, [0.5, 0.51, 0.52, 0.53]))
        assert bp.psi == xs[0]  # the candidates round onto x_min first
        assert bp.sse <= bp.line_sse

    def test_matches_exact_fit_at_every_grid_point(self):
        """The one-pass grid returns, repr for repr, what an exact
        least-squares fit at each of the 999 candidates returns."""
        rng = np.random.default_rng(2003)
        curves = []
        for _ in range(300):
            n = int(rng.integers(4, 15))
            xs = np.sort(rng.uniform(0.0, 100.0, n))
            ys = rng.uniform(0.45, 0.8, n)
            curves.append(list(zip(xs, ys)))
        xs = np.arange(5.0, 81.0, 5.0)
        for knee in (12.0, 30.0, 30.1, 77.0):
            curves.append(list(zip(xs, 0.5 + 0.004 * np.minimum(xs, knee))))
        curves.append(list(zip(xs, 0.5 + 0.002 * xs)))
        curves.append(list(zip(xs, np.full(len(xs), 0.6))))
        gpt = np.array([10.25, 20.5, 30.75, 41.0, 51.25, 61.5, 71.75])
        curves.append(list(zip(gpt, 0.70 - 0.13 * np.exp(-gpt / 15.0))))
        curves.append([(1.0, 0.5), (1.0, 0.55), (2.0, 0.6), (3.0, 0.62), (4.0, 0.63)])
        for pts in curves:
            assert repr(fit_breakpoint(pts)) == repr(exact_grid_breakpoint(pts))

    @given(st.lists(st.tuples(st.floats(0, 100), probs), min_size=4, max_size=12,
                    unique_by=lambda p: p[0]))
    def test_never_worse_than_single_line(self, pts):
        bp = fit_breakpoint(pts)
        assert bp.sse <= bp.line_sse + 1e-12
        assert min(x for x, _ in pts) < bp.psi < max(x for x, _ in pts)


def curve_row(league, season, fraction, gpt, mov, base, bt=None):
    return CurveRow(
        league=league, season=season, fraction=fraction, games_per_team=gpt,
        mean_bt_acc=bt if bt is not None else mov, sd_bt_acc=0.01,
        mean_mov_acc=mov, sd_mov_acc=0.01, baseline_acc=base,
    )


def per_list_curve(rows):
    """aggregate_league_curve written plainly: one ``np.mean`` per column
    list of each fraction's rows in season order, and Python's min and max."""
    by_fraction = {}
    for r in sorted(rows, key=lambda r: r.season):
        by_fraction.setdefault(r.fraction, []).append(r)
    out = []
    for f in sorted(by_fraction):
        grp = by_fraction[f]
        movs = [r.mean_mov_acc for r in grp]
        out.append((f, float(np.mean([r.games_per_team for r in grp])), float(np.mean(movs)),
                    float(np.mean([r.mean_bt_acc for r in grp])),
                    float(np.mean([r.baseline_acc for r in grp])), min(movs), max(movs)))
    return out


def accuracies(rng, n):
    """n accuracies in [0, 1], a tenth of them 0.0, -0.0, 1.0 or the
    smallest subnormal."""
    acc = rng.random(n)
    edge = rng.random(n) < 0.1
    acc[edge] = rng.choice([0.0, -0.0, 1.0, 5e-324], edge.sum())
    return acc.tolist()


@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 4))
def test_aggregate_matches_per_list_means_bit_for_bit(seed, n_seasons, n_fractions):
    """Each fraction has its own subset of up to 300 seasons, labels whose
    text order is not their drawn order, values spread over 18 decades of
    games per team and signed zeros among the accuracies, and the rows come
    shuffled."""
    rng = np.random.default_rng(seed)
    labels = [str(k) for k in rng.permutation(10 * n_seasons)[:n_seasons]]
    rows = []
    for f in rng.choice([0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875], n_fractions,
                        replace=False).tolist():
        seasons = [s for s in labels if rng.random() < 0.8] or labels[:1]
        n = len(seasons)
        rows += [CurveRow("NBA", s, f, gpt, bt, 0.01, mov, 0.01, base)
                 for s, gpt, bt, mov, base in zip(
                     seasons, (10.0 ** rng.uniform(-9, 9, n)).tolist(),
                     accuracies(rng, n), accuracies(rng, n), accuracies(rng, n))]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    got, want = aggregate_league_curve(rows), per_list_curve(rows)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert all(type(v) is float for point in got for v in point)


class TestSummarizeLeague:
    def rows(self):
        fractions = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]
        rows = []
        for season, bump in (("2011", 0.0), ("2012", 0.02)):
            for f in fractions:
                x = f * 82
                acc = 0.70 - 0.12 * np.exp(-x / 15.0) + bump
                rows.append(curve_row("NBA", season, f, x, acc, 0.60))
        return rows

    def test_headline_or_pools_seasons(self):
        rows = self.rows()
        report = summarize_league("NBA", rows)
        at = [r for r in rows if r.fraction == 0.875]
        pooled_acc = np.mean([r.mean_mov_acc for r in at])
        expected = (pooled_acc / (1 - pooled_acc)) / (0.6 / 0.4)
        assert report.or_mov_875 == pytest.approx(expected)
        assert set(report.per_season_or) == {"2011", "2012"}
        assert report.seasons_used == ("2011", "2012")

    def test_slope_columns_present(self):
        report = summarize_league("NBA", self.rows())
        assert set(report.slopes) == {0.25, 0.375, 0.5, 0.875}
        # steeper early, shallower late for a saturating curve
        assert report.slopes[0.25] > report.slopes[0.875] > 0

    def test_breakpoint_attached(self):
        report = summarize_league("NBA", self.rows())
        assert report.breakpoint is not None
        assert 10.25 < report.breakpoint.psi < 71.75

    def test_ratios_against_other_league(self):
        nba = self.rows()
        nfl = [curve_row("NFL", "2012", f, f * 16, 0.5 + 0.012 * f * 16, 0.57)
               for f in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)]
        slopes = {
            "NBA": summarize_league("NBA", nba).slopes,
            "NFL": summarize_league("NFL", nfl).slopes,
        }
        report = summarize_league("NFL", nfl, slopes_by_league=slopes)
        assert set(report.informativeness_ratios) == {"NFL/NBA"}
        assert report.informativeness_ratios["NFL/NBA"] == pytest.approx(
            slopes["NFL"][0.875] / slopes["NBA"][0.875])

    def test_example_or_from_spec_values(self):
        rows = [curve_row("NBA", "2012", f, f * 82, 0.70 if f == 0.875 else 0.65, 0.60)
                for f in (0.125, 0.875)]
        report = summarize_league("NBA", rows)
        assert report.or_mov_875 == pytest.approx(1.5556, abs=1e-4)
