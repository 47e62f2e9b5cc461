"""Workload definitions, set-up and the untraced end-to-end loop.

Every end-to-end number comes from ``seasoninfo.cli.main`` called in
process, so the benchmark depends only on the CLI contract (flags, output
files, exit codes) and not on the library's internal shape.

Each timed unit (one set-up, one ``curve`` call, one ``summary`` call) is
measured three ways: wall seconds; CPU seconds of this process and its
reaped children (the pool workers); and reference seconds. Reference
seconds are the CPU seconds scaled by how fast the machine runs a fixed
speed probe just before the unit: ``cpu * PROBE_REF_S / probe``, the time
the unit would take on a machine where the probe takes PROBE_REF_S. The
gated metrics use reference seconds. On a shared VM the hypervisor steals
vCPU time, and neighbours contend for the cores and caches for stretches
of ten seconds to minutes that slow this process by up to 1.7x. Stolen
time is not charged as CPU time, and contention slows the probe along
with the program, so the ratio measures the program rather than its
neighbours.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# Criterion 7 league shapes (tests/test_acceptance.py). ``seed`` is the
# synth seed criterion 7 uses for that league's one season.
LEAGUES = {
    "NFL": dict(teams=32, games_per_team=16, strength_sd=1.05, home_adv=0.28,
                mov_scale=6.0, mov_noise_sd=13.0, seed=1601),
    "NBA": dict(teams=30, games_per_team=82, strength_sd=0.53, home_adv=0.41,
                mov_scale=7.0, mov_noise_sd=12.0, seed=8201),
    "NHL": dict(teams=30, games_per_team=82, strength_sd=0.28, home_adv=0.20,
                mov_scale=2.5, mov_noise_sd=4.3, seed=8202),
    "MLB": dict(teams=30, games_per_team=162, strength_sd=0.20, home_adv=0.16,
                mov_scale=3.5, mov_noise_sd=6.0, seed=16201),
}
GRID = ("0.125", "0.25", "0.375", "0.5", "0.625", "0.75", "0.875")  # the CLI's default --x-grid
REPLICATES = 100  # the CLI's default --replicates
SETUP_REPEATS = 15
SUMMARY_BURST = 10  # summaries after each full cycle of curve calls
SUMMARY_OUTPUTS = ("summary.json", "table_or.csv", "table_slopes.csv")
PROBE_REF_S = 0.020  # the speed probe's CPU time that reference seconds assume


@dataclass(frozen=True)
class Workload:
    name: str
    leagues: tuple[str, ...]  # each round makes one curve call per league and grid fraction
    seasons: int              # seasons per league, all in each of that league's calls
    jobs: int
    criterion7: bool = False  # use criterion 7's own seasons (one per league)

    @property
    def cells_per_round(self) -> int:
        return len(self.leagues) * self.seasons * len(GRID) * REPLICATES


WORKLOADS = {
    w.name: w for w in (
        Workload("long_season", ("MLB",), seasons=2, jobs=1),
        Workload("short_seasons", ("NFL",), seasons=4, jobs=1),
        Workload("four_league_pool", ("NFL", "NBA", "NHL", "MLB"), seasons=1,
                 jobs=2, criterion7=True),
    )
}


def synth_seed(seed: int, workload: str, league: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{workload}:{league}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class Timing:
    wall: float
    cpu: float
    ref: float    # reference seconds, see the module docstring
    probe: float  # CPU seconds of the speed probe run just before the unit


_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.standard_normal((120, 31))
_PROBE_B = _PROBE_RNG.standard_normal(120)


def speed_probe() -> float:
    """CPU seconds of a fixed mix of small least-squares solves and
    tuple-heavy Python, the two kinds of work the program does. The
    garbage collector is off, so the program's heap cannot slow it."""
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(60):
            np.linalg.lstsq(_PROBE_A, _PROBE_B, rcond=None)
        games = [(i % 30, (i * 7) % 30, (i * 13) % 11 - 5) for i in range(30_000)]
        sum(1 for home, away, margin in games if margin > 0 and home != away)
        return time.process_time() - start
    finally:
        gc.enable()


def cpu_seconds() -> float:
    """User + system CPU seconds of this process (all its threads) and of
    its terminated, reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class CliRunner:
    """Runs seasoninfo commands in process and keeps the failure ledger.

    A non-zero exit, an uncaught exception (exit 1, as the installed
    script would report it) or a failed output check marks the
    invocation failed. Nothing is retried.
    """

    def __init__(self):
        self.cli = None
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: dict[str, str] = {}
        self.probes: list[float] = []

    def reimport(self):
        for name in [m for m in sys.modules if m == "seasoninfo" or m.startswith("seasoninfo.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("seasoninfo.cli")

    def timed(self, unit):
        """Probe the machine's speed, then run ``unit()``; its result and
        its timing."""
        speed = speed_probe()
        self.probes.append(speed)
        start, start_cpu = perf_counter(), cpu_seconds()
        result = unit()
        wall, cpu = perf_counter() - start, cpu_seconds() - start_cpu
        return result, Timing(wall, cpu, cpu * PROBE_REF_S / speed, speed)

    def run(self, argv: list[str], check=None) -> bool:
        """Run one invocation and its output check; False if either failed."""
        self.attempted += 1
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
        if code != 0:
            self.failures.append({"argv": argv, "exit_code": code})
            return False
        problems = check() if check else []
        if problems:
            self.failures.append({"argv": argv, "exit_code": code, "check": problems})
            return False
        return True

    def record(self, path: Path, base: Path) -> list[str]:
        """Record a primary output's sha256; identical invocations must
        keep writing identical bytes."""
        key = str(path.relative_to(base))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        old = self.digests.setdefault(key, digest)
        return [] if old == digest else [f"{key} bytes changed between identical invocations"]


@dataclass
class Inputs:
    """Files one set-up leaves for the timed loop."""

    base: Path                            # output directory, shared by every set-up of a run
    seasons: dict[str, list[Path]]        # league -> season CSVs
    curves: dict[tuple[str, str], Path]   # (league, fraction) -> curve output


def curve_argv(league: str, fraction: str, files, out: Path, seed: int, jobs: int) -> list[str]:
    return ["curve", *map(str, files), "--league", league, "--x-grid", fraction,
            "--out", str(out), "--seed", str(seed), "--jobs", str(jobs)]


def read_curve(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_curve(path: Path, n_seasons: int) -> list[str]:
    """One row per season for the call's one fraction, accuracies in [0, 1]."""
    rows = read_curve(path)
    problems = []
    if len(rows) != n_seasons:
        problems.append(f"{path.name}: {len(rows)} rows, expected {n_seasons}")
    for row in rows:
        for col in ("mean_bt_acc", "mean_mov_acc", "baseline_acc"):
            value = float(row[col])
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{path.name}: {col}={row[col]} in season {row['season']}")
    return problems


def fit_failures(path: Path) -> int:
    return sum(int(r["bt_failures"]) + int(r["mov_failures"]) for r in read_curve(path))


def check_summary(out_dir: Path, leagues, ordering: bool) -> list[str]:
    report = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    ors = {lg: report["leagues"].get(lg, {}).get("or_mov_875") for lg in leagues}
    problems = [f"{lg}: or_mov_875 is {v}" for lg, v in ors.items()
                if not isinstance(v, (int, float))]
    if problems or not ordering:
        return problems
    if not ors["NFL"] >= ors["NBA"] > ors["NHL"] > ors["MLB"]:
        problems.append(f"criterion 7 ordering NFL >= NBA > NHL > MLB broken: {ors}")
    problems += [f"{lg}: or_mov_875 {v} is not above 1" for lg, v in ors.items() if v <= 1.0]
    return problems


def set_up(wl: Workload, seed: int, work: Path, out: Path, runner: CliRunner,
           on_import=None) -> Inputs:
    """Import the package afresh, synthesize the season CSVs into ``work``
    and warm up with a one-cell curve and a summary. Curve and summary
    outputs go to ``out``."""
    work.mkdir(parents=True)
    out.mkdir(exist_ok=True)
    runner.reimport()
    if on_import:
        on_import(runner.cli)
    seasons = {}
    for lg in wl.leagues:
        shape = LEAGUES[lg]
        seasons[lg] = []
        for i in range(wl.seasons):
            path = work / f"{lg}_{i}.csv"
            s = shape["seed"] if wl.criterion7 else synth_seed(seed, wl.name, lg, i)
            runner.run(["synth", "--teams", str(shape["teams"]),
                        "--games-per-team", str(shape["games_per_team"]),
                        "--seed", str(s), "--home-adv", str(shape["home_adv"]),
                        "--strength-sd", str(shape["strength_sd"]),
                        "--mov-scale", str(shape["mov_scale"]),
                        "--mov-noise-sd", str(shape["mov_noise_sd"]), "--out", str(path)])
            seasons[lg].append(path)
    warm = work / "warmup.csv"
    runner.run(["curve", str(seasons[wl.leagues[0]][0]), "--league", wl.leagues[0],
                "--out", str(warm), "--x-grid", "0.5", "--replicates", "1",
                "--jobs", str(wl.jobs)])
    runner.run(["summary", str(warm), "--out", str(work / "warmup")])
    curves = {(lg, f): out / f"curve_{lg}_{f}.csv" for lg in wl.leagues for f in GRID}
    return Inputs(out, seasons, curves)


def run_curve_call(wl: Workload, seed: int, inputs: Inputs, runner: CliRunner, jobs: int,
                   league: str, fraction: str) -> Timing | None:
    """One curve call on all of a league's seasons at one fraction, timed
    against a fresh probe; None on a failure."""
    out = inputs.curves[league, fraction]
    ok, spent = runner.timed(lambda: runner.run(
        curve_argv(league, fraction, inputs.seasons[league], out, seed, jobs),
        check=lambda: check_curve(out, wl.seasons) + runner.record(out, inputs.base)))
    return spent if ok else None


def run_curve_round(wl: Workload, seed: int, inputs: Inputs, runner: CliRunner, jobs: int):
    """Every curve call of the workload once; False on a failure."""
    return all(run_curve_call(wl, seed, inputs, runner, jobs, lg, f) is not None
               for lg, f in inputs.curves)


def run_summary(wl: Workload, inputs: Inputs, runner: CliRunner) -> Timing | None:
    out_dir = inputs.base / "summary"

    def check():
        problems = check_summary(out_dir, wl.leagues, ordering=wl.criterion7)
        for name in SUMMARY_OUTPUTS:
            problems += runner.record(out_dir / name, inputs.base)
        return problems

    ok, spent = runner.timed(lambda: runner.run(
        ["summary", *map(str, inputs.curves.values()), "--out", str(out_dir)], check=check))
    return spent if ok else None


def check_jobs_invariance(wl: Workload, seed: int, inputs: Inputs, runner: CliRunner):
    """A --jobs 1 run of each curve call must write the bytes of the last
    parallel run."""
    for (lg, f), parallel in inputs.curves.items():
        serial = parallel.with_name(f"{parallel.stem}_jobs1.csv")
        runner.run(curve_argv(lg, f, inputs.seasons[lg], serial, seed, 1),
                   check=lambda a=parallel, b=serial: [] if a.read_bytes() == b.read_bytes()
                   else [f"{b.name} differs from the parallel output"])


def nearest_rank(xs: list[float], p: int) -> float:
    """The p-th percentile of sorted ``xs`` by the nearest-rank rule."""
    return xs[max(1, math.ceil(p * len(xs) / 100)) - 1]


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile whose nearest-rank value has at least
    ten samples above it, and that value."""
    xs = sorted(samples)
    for p in range(99, 49, -1):
        if len(xs) - math.ceil(p * len(xs) / 100) >= 10:
            return p, nearest_rank(xs, p)
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (pool
    workers); an upper bound on the combined peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_end_to_end(wl: Workload, seed: int, seconds: int, work: Path) -> dict:
    """Set up SETUP_REPEATS times before the window, each set-up timed on
    its own; the last one's inputs feed the loop. Then a closed loop with
    one client: the workload's curve calls in a fixed cycle, with a burst
    of summaries after each full cycle. The loop stops after the first
    call that ends past ``seconds``, but not before one full cycle."""
    runner = CliRunner()
    setups: list[Timing] = []
    for i in range(SETUP_REPEATS):
        inputs, spent = runner.timed(
            lambda: set_up(wl, seed, work / f"setup{i}", work / "out", runner))
        setups.append(spent)

    cycle = list(inputs.curves)
    calls: dict[tuple[str, str], list[Timing]] = {key: [] for key in cycle}
    summaries: list[Timing] = []
    start = perf_counter()
    made = 0
    while made < len(cycle) or perf_counter() - start < seconds:
        lg, f = key = cycle[made % len(cycle)]
        spent = run_curve_call(wl, seed, inputs, runner, wl.jobs, lg, f)
        if spent is None:
            break  # a failed call is not retried; its failure is on record
        calls[key].append(spent)
        made += 1
        if made % len(cycle) == 0:
            for _ in range(SUMMARY_BURST):
                spent = run_summary(wl, inputs, runner)
                if spent is not None:
                    summaries.append(spent)

    failures = sum(fit_failures(p) for p in inputs.curves.values() if p.exists())
    return {"setups": setups, "calls": calls, "summaries": summaries,
            "probes": runner.probes, "fit_failures": failures, "runner": runner}


def per_round(calls: dict, field: str) -> float:
    """One round's curve time: the sum over the cycle's calls of each
    call's median."""
    return sum(statistics.median(getattr(t, field) for t in spent) for spent in calls.values())


def end_to_end_metrics(wl: Workload, res: dict) -> tuple[dict, dict, list[str]]:
    """Gated metrics for the result line, report-only metrics, and notes."""
    runner = res["runner"]
    calls, summaries, setups = res["calls"], res["summaries"], res["setups"]
    median = statistics.median
    metrics = {"setup_s": (median(t.ref for t in setups), "s")}
    report_only = {"setup_cpu_s": (median(t.cpu for t in setups), "s"),
                   "probe_ms": (median(res["probes"]) * 1000.0, "ms")}
    notes = [f"setup_s, setup_cpu_s: medians of {len(setups)} set-ups",
             f"probe_ms: median of {len(res['probes'])} speed probes; "
             f"reference seconds assume {PROBE_REF_S * 1000:g} ms"]
    if all(calls.values()):
        curve_ref, curve_s = per_round(calls, "ref"), per_round(calls, "wall")
        metrics["curve_ref_s"] = (curve_ref, "s")
        report_only["curve_s"] = (curve_s, "s")
        report_only["curve_cpu_s"] = (per_round(calls, "cpu"), "s")
        report_only["cells_per_s"] = (wl.cells_per_round / curve_s, "1/s")
        made = sum(map(len, calls.values()))
        notes.append(f"curve_*: per-call medians over {made} calls, summed over the "
                     f"{len(calls)} calls of a round ({wl.cells_per_round} cells)")
    if summaries:
        metrics["summary_ref_ms"] = (median(t.ref for t in summaries) * 1000.0, "ms")
        walls = sorted(t.wall * 1000.0 for t in summaries)
        report_only["summary_p50_ms"] = (nearest_rank(walls, 50), "ms")
        tail = tail_percentile(walls)
        if tail:
            report_only["summary_tail_ms"] = (tail[1], "ms")
            notes.append(f"summary_tail_ms: p{tail[0]} of {len(walls)} samples")
        else:
            notes.append(f"summary_tail_ms: none, {len(walls)} samples are fewer than 20")
        notes.append(f"summary_ref_ms, summary_p50_ms: medians of {len(walls)} invocations")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    fits = 2 * wl.cells_per_round
    report_only["fit_failure_rate"] = (res["fit_failures"] / fits, "ratio")
    report_only["failed_share"] = (len(runner.failures) / runner.attempted, "ratio")
    notes.append(f"fit_failure_rate: {res['fit_failures']} of {fits} fits "
                 "in the latest curve files")
    notes.append(f"failed_share: {len(runner.failures)} of {runner.attempted} invocations")
    return metrics, report_only, notes
