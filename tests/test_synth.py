from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from seasoninfo import (
    ConfigError,
    ProtocolConfig,
    SynthSpec,
    bayes_accuracy,
    fit_bt,
    generate_season,
    run_protocol,
)
from seasoninfo.synth import outcome_probabilities


def logit(p: float) -> float:
    return math.log(p / (1 - p))


def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(n_teams=1, games_per_team=4, seed=0, strength_sd=1.0)
    with pytest.raises(ConfigError):
        SynthSpec(n_teams=3, games_per_team=3, seed=0, strength_sd=1.0)  # odd slots
    with pytest.raises(ConfigError):
        SynthSpec(n_teams=4, games_per_team=0, seed=0, strength_sd=1.0)
    with pytest.raises(ConfigError):
        SynthSpec(n_teams=4, games_per_team=4, seed=0)  # no strength mode
    with pytest.raises(ConfigError):
        SynthSpec(n_teams=4, games_per_team=4, seed=0, strength_sd=1.0,
                  strengths={"A": 0, "B": 0, "C": 0, "D": 0})
    with pytest.raises(ConfigError):
        SynthSpec(n_teams=4, games_per_team=4, seed=0, strengths={"A": 0.0})
    with pytest.raises(ConfigError, match="strength_sd must be non-negative"):
        SynthSpec(n_teams=4, games_per_team=4, seed=0, strength_sd=-1.0)


@pytest.mark.parametrize("name", ["home_adv", "mov_scale", "mov_noise_sd", "strength_sd"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_requires_finite_parameters(name, value):
    with pytest.raises(ConfigError, match=name):
        SynthSpec(n_teams=4, games_per_team=4, seed=0, **{"strength_sd": 1.0, name: value})


@pytest.mark.parametrize("name", ["home_adv", "mov_scale", "mov_noise_sd"])
@pytest.mark.parametrize("value", ["x", "1.5", True, None, 10**400],
                         ids=["str-x", "str-1.5", "True", "None", "10**400"])
def test_spec_refuses_a_float_field_that_is_not_a_real_number(name, value):
    """Refused by name when the spec is made, as a strength is, not later
    in generation."""
    with pytest.raises(ConfigError, match=f"{name} must be a finite real number"):
        SynthSpec(n_teams=4, games_per_team=4, seed=0, strength_sd=1.0, **{name: value})


@pytest.mark.parametrize("value", ["x", True, 10**400], ids=["str-x", "True", "10**400"])
def test_spec_refuses_a_strength_sd_that_is_not_a_real_number(value):
    with pytest.raises(ConfigError, match="strength_sd must be a finite real number"):
        SynthSpec(n_teams=4, games_per_team=4, seed=0, strength_sd=value)


@pytest.mark.parametrize("value", ["1.5", "x", True, None, 10**400, math.nan, math.inf, -math.inf],
                         ids=["str-1.5", "str-x", "True", "None", "10**400", "nan", "inf", "-inf"])
def test_spec_refuses_a_strength_that_is_not_a_finite_real(value):
    """A bool, a string, an int too large for a float and the non-finite
    floats are refused by name when the spec is made, not in generation."""
    with pytest.raises(ConfigError, match="strength of team 'A'"):
        SynthSpec(n_teams=2, games_per_team=2, seed=1, strengths={"A": value, "B": 0.0})


@pytest.mark.parametrize("name", ["n_teams", "games_per_team", "seed"])
@pytest.mark.parametrize("value", [True, 2.0, 1.5, "2"], ids=["True", "2.0", "1.5", "str-2"])
def test_spec_refuses_an_integer_field_that_is_not_an_integer(name, value):
    """Before generation: a float seed or game count would fail inside numpy,
    and seed=True would label a season synth-True."""
    fields = {"n_teams": 2, "games_per_team": 2, "seed": 1, name: value}
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        SynthSpec(**fields, strength_sd=1.0)


def test_spec_holds_numpy_integers_as_python_ints():
    spec = SynthSpec(n_teams=np.int64(4), games_per_team=np.int32(2), seed=np.uint8(7),
                     strength_sd=1.0)
    assert {type(v) for v in (spec.n_teams, spec.games_per_team, spec.seed)} == {int}
    assert generate_season(spec) == generate_season(
        SynthSpec(n_teams=4, games_per_team=2, seed=7, strength_sd=1.0))


@pytest.mark.parametrize("strengths,match", [
    ([("A", 0.5), ("B", 0.0)], "strengths must map team ids to strengths, got a list"),
    ({1: 0.5, 2: 0.0}, "team id 1 is not a str")], ids=["list_of_pairs", "int_team_ids"])
def test_spec_refuses_strengths_that_are_not_a_map_of_str(strengths, match):
    with pytest.raises(ConfigError, match=match):
        SynthSpec(n_teams=2, games_per_team=2, seed=1, strengths=strengths)


def test_spec_rejects_negative_seed_and_oversized_margins():
    with pytest.raises(ConfigError, match="seed"):
        SynthSpec(n_teams=4, games_per_team=4, seed=-1, strength_sd=1.0)
    with pytest.raises(ConfigError, match="largest score"):
        generate_season(SynthSpec(n_teams=4, games_per_team=4, seed=0, strength_sd=1.0,
                                  mov_scale=1e300))


def test_spec_refuses_a_schedule_past_the_last_date():
    """Two teams play one game a day from 2000-01-01, so 2,921,940 games
    end on 9999-12-31 and one more would fall after it."""
    with pytest.raises(ConfigError, match="runs past 9999-12-31"):
        SynthSpec(n_teams=2, games_per_team=2_921_941, seed=0, strength_sd=1.0)
    SynthSpec(n_teams=2, games_per_team=2_921_940, seed=0, strength_sd=1.0)


def test_generated_season_satisfies_invariants():
    spec = SynthSpec(n_teams=9, games_per_team=10, seed=5, strength_sd=1.0)
    season, truth = generate_season(spec)
    assert len(season.games) == 9 * 10 // 2
    assert len(season.teams) == 9
    counts = Counter()
    for g in season.games:
        assert g.home != g.away
        assert g.margin == g.home_score - g.away_score
        counts[g.home] += 1
        counts[g.away] += 1
    assert set(counts.values()) == {10}
    assert set(truth.strengths) == set(season.teams)


def test_same_seed_reproduces_season_exactly():
    spec = SynthSpec(n_teams=6, games_per_team=8, seed=123, home_adv=0.3,
                     strength_sd=0.8)
    assert generate_season(spec) == generate_season(spec)
    other = SynthSpec(n_teams=6, games_per_team=8, seed=124, home_adv=0.3,
                      strength_sd=0.8)
    assert generate_season(other)[0] != generate_season(spec)[0]


def test_no_signal_league_has_half_home_wins():
    # 10,000 games, no strength or venue signal; wide noise keeps the tie
    # probability near 1%, so the home-win fraction sits within 3 sd of 0.5.
    spec = SynthSpec(n_teams=100, games_per_team=200, seed=8, home_adv=0.0,
                     strength_sd=0.0, mov_scale=20.0, mov_noise_sd=40.0)
    season, _ = generate_season(spec)
    assert len(season.games) == 10_000
    frac = sum(g.margin > 0 for g in season.games) / len(season.games)
    assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / 10_000)


def test_home_advantage_matches_closed_form_probability():
    spec = SynthSpec(n_teams=100, games_per_team=200, seed=9,
                     home_adv=logit(0.6), strength_sd=0.0,
                     mov_scale=10.0, mov_noise_sd=14.0)
    season, truth = generate_season(spec)
    teams = sorted(season.teams)
    p_win, _, _ = outcome_probabilities(truth, teams[0], teams[1])
    assert p_win == pytest.approx(0.6, abs=0.02)
    frac = sum(g.margin > 0 for g in season.games) / len(season.games)
    assert abs(frac - p_win) <= 3 * math.sqrt(p_win * (1 - p_win) / len(season.games))


class TestBayesAccuracy:
    def test_no_signal_gives_half(self):
        spec = SynthSpec(n_teams=4, games_per_team=4, seed=0, home_adv=0.0,
                         strengths={t: 0.0 for t in "ABCD"})
        assert bayes_accuracy(spec) == pytest.approx(0.5, abs=1e-12)

    def test_two_teams_even_strength_direct(self):
        # Home advantage tuned so the home side wins 75% at either venue;
        # noise wide enough that ties are negligible.
        sd = 1400.0
        mean = 0.5 + 0.67448975019608171 * sd  # Phi^-1(0.75)
        spec = SynthSpec(n_teams=2, games_per_team=2, seed=0,
                         home_adv=1.0, mov_scale=mean, mov_noise_sd=sd,
                         strengths={"A": 0.0, "B": 0.0})
        assert bayes_accuracy(spec) == pytest.approx(0.75, abs=1e-3)

    def test_six_team_spec_matches_monte_carlo(self):
        strengths = {"A": -1.1, "B": -0.6, "C": -0.2, "D": 0.1, "E": 0.7, "F": 1.1}
        spec = SynthSpec(n_teams=6, games_per_team=10, seed=0, home_adv=0.35,
                         strengths=strengths, mov_scale=7.0, mov_noise_sd=12.0)
        exact = bayes_accuracy(spec)

        rng = np.random.default_rng(2025)
        ids = sorted(strengths)
        pairs = [(h, a) for h in ids for a in ids if h != a]
        n = 1_000_000
        pick = rng.integers(0, len(pairs), size=n)
        eta = np.array([strengths[h] - strengths[a] + 0.35 for h, a in pairs])[pick]
        margins = np.rint(7.0 * eta + rng.normal(0, 12.0, size=n))
        predicted_home = eta > 0  # what the truth predictor picks
        credit = np.where(
            margins == 0, 0.5,
            ((margins > 0) == predicted_home).astype(float),
        )
        assert abs(credit.mean() - exact) <= 0.002

    def test_sampled_spec_without_realization_is_an_error(self):
        spec = SynthSpec(n_teams=4, games_per_team=4, seed=0, strength_sd=1.0)
        with pytest.raises(ValueError):
            bayes_accuracy(spec)


def test_fit_recovers_generating_strengths():
    # Long season, tiny penalty: the win/loss fit should land close to the
    # generating strengths because mov_noise_sd = 1.7 * mov_scale makes the
    # margin-sign law track the logistic curve.
    ids = [f"T{i}" for i in range(1, 9)]
    true = dict(zip(ids, [-1.2, -0.8, -0.4, -0.1, 0.1, 0.4, 0.8, 1.2]))
    spec = SynthSpec(n_teams=8, games_per_team=500, seed=3, home_adv=0.25,
                     mov_scale=6.0, mov_noise_sd=10.2, strengths=true)
    season, _ = generate_season(spec)
    fit = fit_bt(season.games, season.teams, penalty=1e-6)
    center = np.mean(list(true.values()))
    errors = [abs(fit.strengths[t] - (true[t] - center)) for t in ids]
    assert np.median(errors) <= 0.1


def test_protocol_accuracy_never_beats_bayes_bound():
    # The season must be long enough that one lucky outcome realization
    # (shared by train and test) cannot push fitted accuracy past the
    # truth-parameter ceiling.
    strengths = {"A": -1.0, "B": -0.5, "C": 0.0, "D": 0.2, "E": 0.5, "F": 0.8,
                 "G": 1.0, "H": -0.3, "I": 0.3, "J": -0.7}
    spec = SynthSpec(n_teams=10, games_per_team=82, seed=18, home_adv=0.3,
                     strengths=strengths)
    season, truth = generate_season(spec)
    # Ceiling over the games actually scheduled (a finite schedule can
    # overrepresent lopsided pairings relative to the uniform-pair value).
    credits = []
    for g in season.games:
        p_win, p_tie, p_loss = outcome_probabilities(truth, g.home, g.away)
        credits.append(max(p_win, p_loss) + 0.5 * p_tie)
    bound = float(np.mean(credits))
    assert bound == pytest.approx(bayes_accuracy(truth), abs=0.02)
    config = ProtocolConfig(replicates=30, master_seed=55)
    for pt in run_protocol(season, config):
        k = config.replicates - pt.bt_failures
        se = pt.sd_bt_acc / np.sqrt(k) if k > 1 else 0.0
        assert pt.mean_bt_acc <= bound + 3 * se
