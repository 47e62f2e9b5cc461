from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasoninfo import (
    BtFit,
    FitError,
    MovFit,
    fit_bt,
    fit_mov,
    info_metric,
    predict_bt,
    predict_mov,
)
from seasoninfo.models import bt_objective_gradient, win_probability
from conftest import game_from_margin, games_from_results, make_game
from oracles import enum_info_metric

# Fixed 3-team, 12-game win/loss instance. Expected values were computed
# with the brute-force grid + direction-set oracle (tests/oracles.py) at
# penalty 1.0 before the Newton fitter was written.
BT_RESULTS = [
    ("A", "B", 1), ("A", "B", 1), ("B", "A", 1), ("B", "A", 0),
    ("A", "C", 1), ("A", "C", 0), ("C", "A", 1), ("C", "A", 0),
    ("B", "C", 1), ("B", "C", 0), ("C", "B", 1), ("C", "B", 0),
]
BT_EXPECTED = {
    "A": 0.256016337726,
    "B": -0.256016327428,
    "C": -0.000000010297,
}
BT_EXPECTED_ALPHA = 0.257043898116
BT_EXPECTED_PI = {
    ("A", "B"): 0.683321101983,
    ("B", "C"): 0.500256895224,
    ("C", "A"): 0.500256887501,
}

# Fixed 4-team, 20-game margin instance; expected values from the
# independent KKT oracle at penalty 0.1.
MOV_ROWS = [
    ("D", "B", -3), ("D", "B", 6), ("D", "B", 3), ("D", "C", -13),
    ("A", "D", -14), ("C", "D", -2), ("C", "A", 5), ("B", "C", 17),
    ("A", "B", 4), ("A", "C", -17), ("B", "D", 6), ("C", "D", 0),
    ("C", "D", 2), ("A", "C", -12), ("A", "D", 6), ("D", "B", -13),
    ("C", "A", 9), ("B", "C", -17), ("B", "D", 1), ("B", "D", 0),
]
MOV_EXPECTED = {
    "A": -4.056390489739,
    "B": 0.883434881364,
    "C": 3.846321293424,
    "D": -0.673365685048,
}
MOV_EXPECTED_LAMBDA = -1.092546279296

# Penalized MLE for the home advantage when a 3-team round robin is swept
# by the home side (6 games, penalty 1.0); from the 1-D bisection oracle.
SEPARATION_ALPHA = 1.292539602103


def bt_games():
    return games_from_results(BT_RESULTS)


def mov_games():
    return [game_from_margin(i, h, a, m) for i, (h, a, m) in enumerate(MOV_ROWS, 1)]


class TestFitBt:
    def test_symmetric_results_give_all_zeros(self):
        games = games_from_results(
            [("A", "B", 1), ("A", "B", 0), ("B", "A", 1), ("B", "A", 0)]
        )
        fit = fit_bt(games, {"A", "B"}, penalty=1.0)
        assert fit.strengths == {"A": 0.0, "B": 0.0}
        assert fit.home_adv == 0.0
        assert fit.final_gradient_norm <= 1e-8

    def test_matches_grid_oracle_on_fixed_instance(self):
        fit = fit_bt(bt_games(), {"A", "B", "C"}, penalty=1.0)
        for team, expected in BT_EXPECTED.items():
            assert fit.strengths[team] == pytest.approx(expected, abs=1e-6)
        assert fit.home_adv == pytest.approx(BT_EXPECTED_ALPHA, abs=1e-6)
        assert fit.final_gradient_norm <= 1e-8

    def test_separation_stays_finite(self):
        games = games_from_results(
            [(h, a, 1) for h, a in
             [("A", "B"), ("B", "A"), ("A", "C"), ("C", "A"), ("B", "C"), ("C", "B")]]
        )
        fit = fit_bt(games, {"A", "B", "C"}, penalty=1.0)
        assert fit.final_gradient_norm <= 1e-8
        assert fit.home_adv == pytest.approx(SEPARATION_ALPHA, abs=1e-6)
        for v in fit.strengths.values():
            assert v == pytest.approx(0.0, abs=1e-9)

    def test_sum_to_zero_and_unseen_team(self):
        fit = fit_bt(bt_games(), {"A", "B", "C", "ZZZ"}, penalty=1.0)
        assert fit.strengths["ZZZ"] == 0.0
        assert abs(sum(fit.strengths.values())) < 1e-10

    def test_ties_are_skipped(self):
        games = bt_games() + [game_from_margin(99, "A", "B", 0)]
        with_tie = fit_bt(games, {"A", "B", "C"}, penalty=1.0)
        without = fit_bt(bt_games(), {"A", "B", "C"}, penalty=1.0)
        assert with_tie.strengths == without.strengths
        assert with_tie.home_adv == without.home_adv

    def test_all_ties_is_a_fit_error(self):
        games = [game_from_margin(1, "A", "B", 0), game_from_margin(2, "B", "A", 0)]
        with pytest.raises(FitError):
            fit_bt(games, {"A", "B"}, penalty=1.0)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            fit_bt([], {"A", "B"}, penalty=1.0)
        with pytest.raises(ValueError):
            fit_bt(bt_games(), {"A", "B", "C"}, penalty=0.0)
        with pytest.raises(ValueError):
            fit_bt(bt_games(), {"A", "B"}, penalty=1.0)  # C missing from team set
        with pytest.raises(ValueError):
            bt_objective_gradient(bt_games(), {"A", "B"}, {"A": 0.0, "B": 0.0}, 0.0, 1.0)

    def test_nonconvergence_raises_with_diagnostics(self):
        with pytest.raises(FitError) as err:
            fit_bt(bt_games(), {"A", "B", "C"}, penalty=1.0, max_iter=1, tol=1e-14)
        assert err.value.iterations == 1
        assert err.value.gradient_norm > 0

    def test_gradient_vanishes_at_fit(self):
        fit = fit_bt(bt_games(), {"A", "B", "C"}, penalty=1.0)
        _, grad = bt_objective_gradient(
            bt_games(), {"A", "B", "C"}, fit.strengths, fit.home_adv, 1.0
        )
        assert np.linalg.norm(grad) <= 1e-8

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_tiny_penalty_converges_or_raises_fit_error(self, rnd):
        # Penalties below the floor eps * (m + 1), lost to rounding against
        # the Hessian's Laplacian: every Newton step is the least-norm one,
        # and a fit with a decisive game converges.
        teams = ["A", "B", "C", "D"]
        games = [game_from_margin(i, *rnd.sample(teams, 2), rnd.choice([-7, -3, 0, 3, 7]))
                 for i in range(1, rnd.randint(2, 14))]
        for penalty in (1e-16, 1e-20, 1e-300):
            if not any(g.margin for g in games):
                with pytest.raises(FitError, match="no decisive"):
                    fit_bt(games, teams, penalty=penalty)
                continue
            fit = fit_bt(games, teams, penalty=penalty)
            assert fit.final_gradient_norm <= 1e-8

    def test_swept_round_robin_at_a_tiny_penalty(self):
        games = games_from_results(
            [(h, a, 1) for h, a in
             [("A", "B"), ("B", "A"), ("A", "C"), ("C", "A"), ("B", "C"), ("C", "B")]]
        )
        # The penalty is below the floor eps * (m + 1), and the Hessian's
        # strength block is its Laplacian to working precision, singular:
        # every step is the least-norm one, which leaves the strengths at 0.
        # The home advantage grows until its gradient, 6 (1 - pi) less a
        # negligible penalty term, falls below tol.
        fit = fit_bt(games, {"A", "B", "C"}, penalty=1e-300)
        assert fit.final_gradient_norm <= 1e-8
        assert fit.strengths == {"A": 0.0, "B": 0.0, "C": 0.0}
        assert 6 / (1 + math.exp(fit.home_adv)) <= 1e-8

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_label_symmetry(self, rnd):
        teams = ["A", "B", "C", "D"]
        games = [
            game_from_margin(i, *rnd.sample(teams, 2), rnd.choice([-7, -3, 3, 7]))
            for i in range(1, 13)
        ]
        fit = fit_bt(games, teams, penalty=1.0)

        mapping = dict(zip(teams, rnd.sample(teams, len(teams))))
        relabeled = [
            game_from_margin(i, mapping[g.home], mapping[g.away], g.margin)
            for i, g in enumerate(games, 1)
        ]
        refit = fit_bt(relabeled, teams, penalty=1.0)
        assert refit.home_adv == pytest.approx(fit.home_adv, abs=1e-7)
        for t in teams:
            assert refit.strengths[mapping[t]] == pytest.approx(
                fit.strengths[t], abs=1e-7)
        for g, rg in zip(games, relabeled):
            assert predict_bt(refit, rg) == pytest.approx(predict_bt(fit, g), abs=1e-9)


class TestFitMov:
    def test_symmetric_pair_pins_home_adv(self):
        games = [game_from_margin(1, "B", "A", 3), game_from_margin(2, "A", "B", 3)]
        fit = fit_mov(games, {"A", "B"}, penalty=0.0)
        assert fit.strengths["A"] == pytest.approx(0.0, abs=1e-12)
        assert fit.strengths["B"] == pytest.approx(0.0, abs=1e-12)
        assert fit.home_adv == pytest.approx(3.0, abs=1e-12)
        assert predict_mov(fit, game_from_margin(3, "B", "A", 0)) == pytest.approx(3.0)

    def test_single_game_interpolated_in_small_penalty_limit(self):
        games = [game_from_margin(1, "A", "B", 7)]
        fit = fit_mov(games, {"A", "B"}, penalty=1e-12)
        predicted = fit.strengths["A"] - fit.strengths["B"] + fit.home_adv
        assert predicted == pytest.approx(7.0, abs=1e-6)

    def test_matches_kkt_oracle_on_fixed_instance(self):
        fit = fit_mov(mov_games(), set("ABCD"), penalty=0.1)
        for team, expected in MOV_EXPECTED.items():
            assert fit.strengths[team] == pytest.approx(expected, abs=1e-8)
        assert fit.home_adv == pytest.approx(MOV_EXPECTED_LAMBDA, abs=1e-8)
        assert abs(sum(fit.strengths.values())) < 1e-10
        assert fit.residual_sd >= 0

    def test_unseen_team_gets_zero(self):
        fit = fit_mov(mov_games(), set("ABCDE"), penalty=0.1)
        assert fit.strengths["E"] == 0.0

    def test_home_away_antisymmetry(self):
        games = mov_games()
        mirrored = [
            game_from_margin(i, g.away, g.home, -g.margin)
            for i, g in enumerate(games, 1)
        ]
        fit = fit_mov(games, set("ABCD"), penalty=0.1)
        mirror = fit_mov(mirrored, set("ABCD"), penalty=0.1)
        assert mirror.home_adv == pytest.approx(-fit.home_adv, abs=1e-9)
        for t in "ABCD":
            assert mirror.strengths[t] == pytest.approx(fit.strengths[t], abs=1e-9)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            fit_mov([], {"A", "B"})
        with pytest.raises(ValueError):
            fit_mov(mov_games(), set("ABCD"), penalty=-0.5)


class TestPredict:
    def test_all_zero_fit_predicts_half_and_zero(self):
        bt = fit_bt(
            games_from_results([("A", "B", 1), ("A", "B", 0), ("B", "A", 1), ("B", "A", 0)]),
            {"A", "B"},
        )
        mov = fit_mov(
            [game_from_margin(1, "A", "B", 2), game_from_margin(2, "A", "B", -2),
             game_from_margin(3, "B", "A", 2), game_from_margin(4, "B", "A", -2)],
            {"A", "B"},
        )
        g = make_game(9, "A", "B", 0, 0)
        assert predict_bt(bt, g) == 0.5
        assert predict_mov(mov, g) == pytest.approx(0.0, abs=1e-12)

    def test_logit_identity(self):
        # strength gap + home edge of ln 3 means 3:1 odds
        fit = BtFit(strengths={"A": math.log(3) / 2, "B": -math.log(3) / 2},
                    home_adv=0.0, iterations=0, final_gradient_norm=0.0)
        assert predict_bt(fit, make_game(1, "A", "B", 0, 0)) == pytest.approx(0.75)

    def test_fixed_instance_predictions_match_oracle(self):
        fit = fit_bt(bt_games(), {"A", "B", "C"}, penalty=1.0)
        for (home, away), expected in BT_EXPECTED_PI.items():
            got = predict_bt(fit, make_game(1, home, away, 0, 0))
            assert got == pytest.approx(expected, abs=1e-6)

    def test_mov_arithmetic(self):
        fit = MovFit(strengths={"A": 2.0, "B": -2.0}, home_adv=3.0, residual_sd=0.0)
        assert predict_mov(fit, make_game(1, "A", "B", 0, 0)) == 7.0

    def test_unseen_teams_use_zero_strength(self):
        fit = fit_bt(bt_games(), {"A", "B", "C"}, penalty=1.0)
        pi = predict_bt(fit, make_game(1, "X", "Y", 0, 0))
        assert pi == pytest.approx(1.0 / (1.0 + math.exp(-fit.home_adv)))

    def test_probability_underflows_to_0_without_a_warning(self):
        # e^-eta overflows for eta below about -709.
        assert win_probability(np.array([-800.0, 800.0])).tolist() == [0.0, 1.0]
        assert win_probability(-1e300) == 0.0

    def test_probability_monotone_in_strength_gap(self):
        fit = fit_bt(bt_games(), {"A", "B", "C"}, penalty=1.0)
        gaps = sorted(
            fit.strengths[h] - fit.strengths[a]
            for h in "ABC" for a in "ABC" if h != a
        )
        pis = [
            1.0 / (1.0 + math.exp(-(gap + fit.home_adv))) for gap in gaps
        ]
        assert all(x < y for x, y in zip(pis, pis[1:]) if x != y)


class TestInfoMetric:
    def test_three_correct_of_four(self):
        preds = [(True, 1), (True, 1), (True, 1), (True, -1)]
        assert info_metric(preds) == 0.75

    def test_ties_credit_half_regardless_of_prediction(self):
        assert info_metric([(True, 0), (False, 0)]) == 0.5

    def test_ten_game_mixed_list_matches_enumeration(self):
        preds = [(True, 1), (True, -1), (False, -1), (False, 1), (True, 0),
                 (False, 0), (True, 1), (False, -1), (True, -1), (False, 1)]
        assert info_metric(preds) == enum_info_metric(preds) == 0.5

    def test_rejects_empty_and_bad_outcomes(self):
        with pytest.raises(ValueError):
            info_metric([])
        with pytest.raises(ValueError):
            info_metric([(True, 2)])

    @given(st.lists(st.tuples(st.booleans(), st.sampled_from([-1, 0, 1])),
                    min_size=1, max_size=40))
    def test_order_invariant_and_bounded(self, preds):
        value = info_metric(preds)
        assert 0.0 <= value <= 1.0
        assert info_metric(list(reversed(preds))) == value
        assert value == enum_info_metric(preds)
