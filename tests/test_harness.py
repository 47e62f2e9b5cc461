from __future__ import annotations

import collections
import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import seasoninfo

from seasoninfo import (
    ConfigError,
    ProtocolConfig,
    SynthSpec,
    generate_season,
    home_baseline,
    make_split,
    run_protocol,
    season_to_csv,
    summarize_season,
)
from seasoninfo import harness
from seasoninfo.cli import main
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


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, True, 3.0, "7", None])
def test_config_refuses_a_master_seed_outside_64_unsigned_bits(seed):
    """A seed is packed as 64 unsigned bits, so one outside [0, 2**64) would
    draw the splits of another seed; it is refused, and so is a non-integer."""
    with pytest.raises(ConfigError, match="master_seed"):
        ProtocolConfig(master_seed=seed)


def test_config_holds_a_numpy_master_seed_as_an_int():
    for seed in (np.uint64(2**64 - 1), np.int32(7), np.int64(0)):
        config = ProtocolConfig(master_seed=seed)
        assert type(config.master_seed) is int and config.master_seed == seed
    assert ProtocolConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1


def test_curve_refuses_an_aliasing_seed_and_writes_nothing(tmp_path, capsys):
    season, _ = generate_season(SynthSpec(n_teams=4, games_per_team=4, seed=1,
                                          strength_sd=1.0))
    (tmp_path / "s.csv").write_text(season_to_csv(season), encoding="utf-8")
    for seed in ("-1", "18446744073709551616"):
        out = tmp_path / "c.csv"
        assert main(["curve", str(tmp_path / "s.csv"), "--league", "NFL", "--seed", seed,
                     "--out", str(out)]) == 2
        assert "master_seed must be in [0, 2**64)" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


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
    splits = [(f, make_split(toy_16_game_season, config, f, k))
              for f in config.x_grid for k in range(config.replicates)]
    for f, split in splits:
        train_ids = {g.game_id for g in split.train}
        test_ids = {g.game_id for g in split.test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == all_ids
        assert len(split.train) == train_size(f, 16)


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


def test_run_seasons_refuses_jobs_below_1(small_league):
    season, _ = small_league
    with pytest.raises(ConfigError, match="jobs must be at least 1, got 0"):
        harness.run_seasons([season], ProtocolConfig(replicates=2), 0)


def test_run_protocol_reproducible_across_jobs(small_league):
    season, _ = small_league
    config = ProtocolConfig(x_grid=(0.25, 0.75), replicates=12, master_seed=11)
    first = run_protocol(season, config, jobs=1)
    second = run_protocol(season, config, jobs=1)
    parallel = run_protocol(season, config, jobs=3)
    assert first == second
    assert first == parallel


def usable_cpus(monkeypatch, cpus, affinity=True):
    """Make this process see ``cpus`` usable CPUs, through
    ``os.sched_getaffinity`` or, without it, through ``os.cpu_count``."""
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)


def unit_replicates(monkeypatch, season, replicates):
    """Make a work unit of ``season`` hold ``replicates`` replicates: with
    the default budget, a small season's call is too little work for a
    helper to pay its way."""
    per_replicate = (harness.GAME_BYTES * len(season.rows)
                     + harness.TEAM_BYTES * (len(season.teams) + 1) ** 2)
    monkeypatch.setattr(harness, "UNIT_BYTES", replicates * per_replicate)


def record_helpers(monkeypatch) -> list:
    """Replace ``multiprocessing.Process`` for ``run_seasons``: each helper
    started is recorded and runs its share in this process, so no process is
    made. Returns the list of the helpers' shares."""
    shares = []

    class InlineProcess:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            shares.append(self.args[-1])
            self.target(*self.args)  # sends its few results before anyone reads them

        def terminate(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(harness.multiprocessing, "Process", InlineProcess)
    return shares


@pytest.mark.parametrize("jobs,replicates,workers", [(16, 3, 3), (16, 1, None), (2, 12, 2)])
def test_jobs_start_at_most_one_worker_per_unit(monkeypatch, small_league, jobs, replicates,
                                                workers):
    """``--jobs N`` uses the caller plus N - 1 helpers, at most one worker
    per work unit, so a single unit runs in the caller alone."""
    season, _ = small_league
    config = ProtocolConfig(x_grid=(0.5,), replicates=replicates, master_seed=11)
    usable_cpus(monkeypatch, 64)
    monkeypatch.setattr(harness, "UNIT_BYTES", 1)  # each replicate is a unit worth a worker
    shares = record_helpers(monkeypatch)
    points = run_protocol(season, config, jobs=jobs)
    assert len(shares) == (0 if workers is None else workers - 1)
    assert repr(points) == repr(run_protocol(season, config, jobs=1))


@pytest.mark.parametrize("cpus,affinity,helpers", [(3, True, 2), (1, True, 0), (4, False, 3),
                                                   (None, False, 0)])
def test_jobs_are_capped_at_the_usable_cpus(monkeypatch, small_league, cpus, affinity, helpers):
    season, _ = small_league
    # Four workers need 8 UNIT_BYTES of work, and 2-replicate units a budget
    # of at least 2 replicates: so two fractions of 12, and 3-replicate units.
    config = ProtocolConfig(x_grid=(0.25, 0.75), replicates=12, master_seed=11)
    unit_replicates(monkeypatch, season, 3)
    usable_cpus(monkeypatch, cpus, affinity)
    shares = record_helpers(monkeypatch)
    points = run_protocol(season, config, jobs=1000)
    assert len(shares) == helpers
    # units are sized for the capped count (at least two per worker), not
    # one replicate each as for 1000 workers
    assert {len(ks) for share in shares for _, _, ks in share} <= {2}
    assert repr(points) == repr(run_protocol(season, config, jobs=1))


def test_a_call_too_small_for_a_helper_runs_in_the_caller(monkeypatch, small_league):
    """One fraction of a small season is less than two units of work, so
    ``--jobs 2`` starts no helper and evaluates ``--jobs 1``'s units."""
    season, _ = small_league
    config = ProtocolConfig(x_grid=(0.5,), replicates=100, master_seed=11)
    usable_cpus(monkeypatch, 2)
    shares = record_helpers(monkeypatch)
    points = run_protocol(season, config, jobs=2)
    assert shares == []
    assert repr(points) == repr(run_protocol(season, config, jobs=1))


def test_a_call_of_many_seasons_starts_its_helpers_once(monkeypatch, tmp_path):
    """The units of every season of a ``curve`` call are dealt into one set
    of shares: three seasons at ``--jobs 2`` start one helper, not three."""
    paths = []
    for seed in (1, 2, 3):
        season, _ = generate_season(SynthSpec(n_teams=8, games_per_team=10, seed=seed,
                                              strength_sd=1.0))
        paths.append(tmp_path / f"s{seed}.csv")
        paths[-1].write_text(season_to_csv(season), encoding="utf-8")
    unit_replicates(monkeypatch, season, 3)  # each season alone is worth two workers
    usable_cpus(monkeypatch, 2)
    argv = ["curve", *map(str, paths), "--league", "NFL", "--x-grid", "0.5",
            "--replicates", "12"]
    assert main([*argv, "--out", str(tmp_path / "jobs1.csv")]) == 0
    shares = record_helpers(monkeypatch)
    assert main([*argv, "--jobs", "2", "--out", str(tmp_path / "jobs2.csv")]) == 0
    assert len(shares) == 1
    assert (tmp_path / "jobs2.csv").read_bytes() == (tmp_path / "jobs1.csv").read_bytes()


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_helpers_started_without_fork_give_the_same_points(monkeypatch, small_league, method):
    """A helper that imports the package afresh, as under ``spawn`` or
    ``forkserver``, gets everything it needs through its arguments."""
    season, _ = small_league
    config = ProtocolConfig(x_grid=(0.5,), replicates=12, master_seed=11)
    unit_replicates(monkeypatch, season, 3)  # 4 units, 2 workers
    usable_cpus(monkeypatch, 2)
    alone = repr(run_protocol(season, config, jobs=1))
    monkeypatch.setattr(harness, "multiprocessing", multiprocessing.get_context(method))
    schedule = {}
    (points,) = harness.run_seasons([season], config, 2, schedule)
    assert repr(points) == alone
    assert schedule["workers"] == 2


def _synth_season(n_teams, games_per_team, seed):
    return generate_season(SynthSpec(n_teams=n_teams, games_per_team=games_per_team, seed=seed,
                                     strength_sd=1.0))[0]


@pytest.mark.parametrize("jobs", [1, 2])
def test_seasons_of_one_length_draw_each_split_once(monkeypatch, jobs):
    """A split depends on its season only through the game count, so
    ``run_seasons`` cuts one set of units per length, draws each (games,
    fraction, replicates) train mask once, evaluates every season of that
    length on it whatever its team count, and returns the points of
    separate ``run_protocol`` calls."""
    seasons = [_synth_season(32, 16, seed) for seed in (1, 2, 3)]  # 256 games each
    seasons.append(_synth_season(25, 20, 4))  # 250 games
    seasons.append(_synth_season(16, 32, 5))  # 256 games, 16 teams
    config = ProtocolConfig(x_grid=(0.25, 0.5), replicates=12, master_seed=5)
    alone = [repr(run_protocol(season, config)) for season in seasons]
    # Units of 2 replicates, the size for 32 teams, for every season.
    monkeypatch.setattr(harness, "UNIT_BYTES", 2 * harness._replicate_bytes(256, 32))
    usable_cpus(monkeypatch, 2)
    shares = record_helpers(monkeypatch)
    drawn = collections.Counter()
    seed = harness.split_seed

    def counted(master_seed, fraction, replicate):
        drawn[fraction, replicate] += 1
        return seed(master_seed, fraction, replicate)

    monkeypatch.setattr(harness, "split_seed", counted)
    schedule = {}
    got = harness.run_seasons(seasons, config, jobs, schedule)
    assert [repr(points) for points in got] == alone
    # 6 units per fraction and season: the 16-team season's are sized for 32 teams
    assert schedule["units"] == 2 * 6 * len(seasons)
    # one draw for the four 256-game seasons and one for the 250-game season
    assert drawn == {(f, k): 2 for f in config.x_grid for k in range(config.replicates)}
    assert len(shares) == jobs - 1
    for share in shares:  # a helper gets whole groups
        assert {seasons for seasons, _, _ in share} == {(0, 1, 2, 4), (3,)}


needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="the patched _evaluate_split reaches helpers through fork")


@contextlib.contextmanager
def within(seconds: int):
    """Fail the test, rather than hang, if the body takes longer."""
    def expire(signum, frame):  # not an OSError, which a wait for a process swallows
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def helper_run(monkeypatch, small_league):
    """Run ``run_protocol`` with one real helper, ``_evaluate_split`` (one
    season's units of a group) replaced by ``in_helper`` in the helper and
    by ``in_caller`` in this process.
    Any process a failing run leaves behind is stopped afterwards."""
    season, _ = small_league
    config = ProtocolConfig(x_grid=(0.5,), replicates=12, master_seed=11)
    caller = os.getpid()

    def run(in_helper, in_caller=harness._evaluate_split):
        monkeypatch.setattr(harness, "_evaluate_split", lambda *args: (
            in_caller if os.getpid() == caller else in_helper)(*args))
        with within(60):
            return run_protocol(season, config, jobs=2)

    usable_cpus(monkeypatch, 2)
    unit_replicates(monkeypatch, season, 3)  # 4 units, 2 workers
    yield run
    for left in multiprocessing.active_children():
        left.terminate()
        left.join()


@needs_fork
def test_an_exception_in_a_helper_reaches_the_caller(helper_run):
    def fail(*args):
        raise ZeroDivisionError("in a helper")

    with pytest.raises(ZeroDivisionError, match="in a helper"):
        helper_run(fail)
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_helper_that_dies_without_results_is_an_error_not_a_hang(helper_run):
    with pytest.raises(RuntimeError, match="exited with code 7"):
        helper_run(lambda *args: os._exit(7))
    assert multiprocessing.active_children() == []


@needs_fork
def test_an_exception_in_the_callers_share_stops_a_blocked_helper(helper_run):
    def fail(*args):
        time.sleep(0.5)  # the helper is by then blocked sending its results
        raise ZeroDivisionError("in the caller")

    def large(*args):  # a cell per replicate, each past a 64 kB pipe buffer and distinct,
        # as pickle sends a repeated object once
        return [(os.urandom(100_000), 0.5, 0.5) for _ in args[-1]]

    start = time.perf_counter()
    with pytest.raises(ZeroDivisionError, match="in the caller"):
        helper_run(large, in_caller=fail)
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_jobs_write_buffered_stdout_once(tmp_path):
    """Helpers start with this process's stdio buffers flushed, so text
    printed before the call is written once, not once per process."""
    season, curve = tmp_path / "s.csv", tmp_path / "c.csv"
    assert main(["synth", "--teams", "8", "--games-per-team", "10", "--seed", "3",
                 "--out", str(season)]) == 0
    argv = ["curve", str(season), "--league", "NFL", "--replicates", "12", "--x-grid", "0.5",
            "--jobs", "2", "--out", str(curve)]
    script = ("import os; os.sched_getaffinity = lambda pid: {0, 1}\n"  # a helper on any machine
              "from seasoninfo import harness; harness.UNIT_BYTES = 1\n"  # worth a helper
              "from seasoninfo.cli import main\n"
              f"print('x', end=''); raise SystemExit(main({argv!r}))")
    path = [str(Path(seasoninfo.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=120)
    assert (run.returncode, run.stdout) == (0, b"x"), run.stderr


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
