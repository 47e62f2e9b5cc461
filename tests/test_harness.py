from __future__ import annotations

import numpy as np
import pytest

from seasoninfo import (
    ConfigError,
    ProtocolConfig,
    SynthSpec,
    generate_season,
    home_baseline,
    make_split,
    run_protocol,
    summarize_season,
)
from seasoninfo import harness
from seasoninfo.harness import split_seed, train_size
from conftest import game_from_margin, season_of


def test_config_validation():
    with pytest.raises(ConfigError):
        ProtocolConfig(x_grid=(0.5, 1.0))
    with pytest.raises(ConfigError):
        ProtocolConfig(x_grid=(0.0,))
    with pytest.raises(ConfigError):
        ProtocolConfig(replicates=0)
    with pytest.raises(ConfigError):
        ProtocolConfig(x_grid=())
    with pytest.raises(ConfigError):
        ProtocolConfig(x_grid=(0.5, 0.25, 0.5))


def test_split_seed_is_frozen():
    # The seeding scheme is a reproducibility contract; these values must
    # never change silently.
    assert split_seed(0, 0.125, 0) == 17456592899810247176
    assert split_seed(123456789, 0.875, 99) == 11571938636529471760
    assert split_seed(0, 0.125, 1) != split_seed(0, 0.125, 0)
    assert split_seed(0, 0.25, 0) != split_seed(0, 0.125, 0)
    assert split_seed(1, 0.125, 0) != split_seed(0, 0.125, 0)


def test_train_size_uses_bankers_rounding():
    assert train_size(0.25, 16) == 4
    assert train_size(0.125, 20) == 2   # 2.5 rounds to even
    assert train_size(0.375, 20) == 8   # 7.5 rounds to even
    assert train_size(0.875, 256) == 224


def test_toy_split_sizes_and_partition(toy_16_game_season):
    config = ProtocolConfig(x_grid=(0.25,), replicates=3, master_seed=1)
    split = make_split(toy_16_game_season, config, 0.25, 0)
    assert len(split.train) == 4
    assert len(split.test) == 12
    train_ids = {g.game_id for g in split.train}
    test_ids = {g.game_id for g in split.test}
    assert not train_ids & test_ids
    assert train_ids | test_ids == {g.game_id for g in toy_16_game_season.games}


def test_split_regeneration_is_identical(toy_16_game_season):
    config = ProtocolConfig(x_grid=(0.5,), replicates=2, master_seed=99)
    a = make_split(toy_16_game_season, config, 0.5, 1)
    b = make_split(toy_16_game_season, config, 0.5, 1)
    assert a == b


def test_all_splits_satisfy_partition_invariant(toy_16_game_season):
    config = ProtocolConfig(replicates=10, master_seed=5)
    all_ids = {g.game_id for g in toy_16_game_season.games}
    splits = [make_split(toy_16_game_season, config, f, k)
              for f in config.x_grid for k in range(config.replicates)]
    for split in splits:
        train_ids = {g.game_id for g in split.train}
        test_ids = {g.game_id for g in split.test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == all_ids
        assert len(split.train) == train_size(split.fraction, 16)


def test_game_membership_frequencies_are_binomial():
    games = [game_from_margin(i, f"H{i}", f"A{i}", 3) for i in range(1, 257)]
    season = season_of(games)
    config = ProtocolConfig(x_grid=(0.125,), replicates=100, master_seed=2027)
    counts = {g.game_id: 0 for g in season.games}
    splits = [make_split(season, config, f, k)
              for f in config.x_grid for k in range(config.replicates)]
    for split in splits:
        for g in split.train:
            counts[g.game_id] += 1
    # Each game lands in a 32-of-256 train set, so counts are
    # Binomial(100, 0.125); check every game within 3 sd of that.
    sd = np.sqrt(100 * 0.125 * 0.875)
    deviations = [abs(c - 12.5) for c in counts.values()]
    assert max(deviations) <= 3 * sd
    assert np.mean(list(counts.values())) == pytest.approx(12.5)


def test_fraction_leaving_empty_side_is_config_error(toy_16_game_season):
    config = ProtocolConfig(x_grid=(0.01,), replicates=2)
    with pytest.raises(ConfigError):
        make_split(toy_16_game_season, config, 0.01, 0)
    with pytest.raises(ConfigError):
        run_protocol(toy_16_game_season, config)


def test_home_baseline_counts():
    games = [game_from_margin(i, "A", "B", m) for i, m in enumerate([3, -2, 5, 0], 1)]
    assert home_baseline(games) == 0.625
    with pytest.raises(ValueError):
        home_baseline([])


@pytest.fixture(scope="module")
def small_league():
    spec = SynthSpec(n_teams=12, games_per_team=20, seed=77, home_adv=0.35,
                     strength_sd=1.0, mov_scale=7.0, mov_noise_sd=12.0)
    season, truth = generate_season(spec)
    return season, truth


def test_run_protocol_reproducible_across_jobs(small_league):
    season, _ = small_league
    config = ProtocolConfig(x_grid=(0.25, 0.75), replicates=12, master_seed=11)
    first = run_protocol(season, config, jobs=1)
    second = run_protocol(season, config, jobs=1)
    parallel = run_protocol(season, config, jobs=3)
    assert first == second
    assert first == parallel


@pytest.mark.parametrize("jobs,replicates,workers", [(16, 3, 3), (16, 1, None), (2, 12, 2)])
def test_jobs_start_at_most_one_worker_per_unit(monkeypatch, small_league, jobs, replicates,
                                                workers):
    """A pool of ``jobs`` workers forks them all at its first submit, so a
    call starts at most one per work unit, and none for a single unit."""
    made = []

    class RecordingPool:  # maps in process
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    season, _ = small_league
    config = ProtocolConfig(x_grid=(0.5,), replicates=replicates, master_seed=11)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    points = run_protocol(season, config, jobs=jobs)
    assert made == ([] if workers is None else [workers])
    assert repr(points) == repr(run_protocol(season, config, jobs=1))


def test_huge_strength_spread_is_nearly_fully_predictable():
    # Gaps of at least 4 logits between neighbours: the truth predictor is
    # right more than 98% of the time, so a fitted model at the largest
    # training fraction should clear 0.95.
    from seasoninfo import bayes_accuracy

    strengths = {"A": -10.0, "B": -6.0, "C": -2.0, "D": 2.0, "E": 6.0, "F": 10.0}
    spec = SynthSpec(n_teams=6, games_per_team=82, seed=4, home_adv=0.2,
                     strengths=strengths, mov_scale=7.0, mov_noise_sd=12.0)
    season, truth = generate_season(spec)
    assert bayes_accuracy(truth) > 0.98
    config = ProtocolConfig(x_grid=(0.875,), replicates=40, master_seed=9)
    (pt,) = run_protocol(season, config)
    assert pt.mean_bt_acc >= 0.95


def test_accuracy_grows_with_training_fraction(small_league):
    season, _ = small_league
    config = ProtocolConfig(x_grid=(0.125, 0.875), replicates=40, master_seed=21)
    lo, hi = run_protocol(season, config)
    se = lo.sd_bt_acc / np.sqrt(config.replicates)
    assert hi.mean_bt_acc >= lo.mean_bt_acc - 2 * se


def test_baseline_matches_season_home_rate(small_league):
    season, _ = small_league
    config = ProtocolConfig(replicates=100, master_seed=31)
    points = run_protocol(season, config)
    summary = summarize_season(season)
    season_rate = summary.home_win_fraction + 0.5 * summary.tie_fraction
    n = summary.n_games
    for pt in points:
        # Binomial bound on the Monte Carlo error of the averaged
        # baseline; without-replacement sampling only tightens it.
        test_size = n - train_size(pt.fraction, n)
        se = np.sqrt(season_rate * (1 - season_rate) / test_size / config.replicates)
        assert abs(pt.baseline_acc - season_rate) <= 3 * se


def test_curve_point_fields(small_league):
    season, _ = small_league
    config = ProtocolConfig(x_grid=(0.5,), replicates=8, master_seed=3)
    (pt,) = run_protocol(season, config)
    assert pt.games_per_team == pytest.approx(0.5 * 20)
    assert 0.0 <= pt.mean_bt_acc <= 1.0
    assert 0.0 <= pt.mean_mov_acc <= 1.0
    assert pt.sd_bt_acc >= 0.0
    assert pt.bt_failures == 0
    assert pt.mov_failures == 0


def test_failed_replicates_are_counted_not_fatal():
    # Five ties and one decisive game: any train set without the decisive
    # game has no win/loss signal, so those BT fits fail and are skipped.
    games = [game_from_margin(i, "A", "B", 0) for i in range(1, 4)]
    games += [game_from_margin(i, "B", "A", 0) for i in range(4, 6)]
    games += [game_from_margin(6, "A", "B", 7)]
    season = season_of(games)
    config = ProtocolConfig(x_grid=(0.5,), replicates=30, master_seed=13)
    (pt,) = run_protocol(season, config)
    assert 0 < pt.bt_failures < 30
    assert np.isfinite(pt.mean_bt_acc)
    assert pt.mov_failures == 0
    assert np.isfinite(pt.mean_mov_acc)
