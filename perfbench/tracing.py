"""Traced run: spans and counts around calls into the package's public
functions, recorded from the benchmark's own files.

The curve layers are measured by replaying one round's cells through
``make_split``, ``home_baseline``, ``fit_bt``, ``fit_mov`` and the scoring
functions; the replay must reproduce ``run_protocol``'s ``CurvePoint``s
bit for bit, so the per-layer split describes the real program. Summary
layers are measured by wrapping the module attributes a real ``summary``
invocation looks up (``cli.read_curve_file``, ``cli.summarize_league``,
``analysis.fit_breakpoint``). A public function that is gone, or no
longer accepts the arguments the replay passes, makes its metrics
missing instead of failing the run; that is checked before any call. An
exception raised inside a call is a failed check.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import statistics
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import workloads as wk

SUMMARY_RUNS = 5

# Counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = ("harness.cells", "models.games_scored", "models.bt_newton_iters",
                "analysis.breakpoint_calls")
CELL_COUNTS = ("harness.cells", "models.bt_fits", "models.bt_newton_iters",
               "models.bt_failures", "models.mov_fits", "models.games_scored")


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


class MissingLayer(Exception):
    """A public function the trace calls is gone or changed shape."""


def public(module, name):
    fn = getattr(module, name, None)
    if fn is None:
        raise MissingLayer(f"{getattr(module, '__name__', 'a removed module')}.{name} is gone")
    return fn


def accepting(module, name, *args, **kwargs):
    """``module.name``, checked to accept a call with these arguments
    (placeholders suffice: only the parameters are matched)."""
    fn = public(module, name)
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # no signature to inspect, e.g. a builtin
        return fn
    try:
        sig.bind(*args, **kwargs)
    except TypeError as exc:
        raise MissingLayer(f"{module.__name__}.{name}{sig}: {exc}") from None
    return fn


def resolve_layers(pkg) -> dict:
    """Every public function the curve trace calls, each checked against
    the call the trace makes."""
    ingest, harness, models = pkg["ingest"], pkg["harness"], pkg["models"]
    _ = None
    return {
        "parse_season": accepting(ingest, "parse_season", _, _, _),
        "League": accepting(ingest, "League", _),
        "ProtocolConfig": accepting(harness, "ProtocolConfig", master_seed=_),
        "run_protocol": accepting(harness, "run_protocol", _, _, jobs=_),
        "make_split": accepting(harness, "make_split", _, _, _, _),
        "home_baseline": accepting(harness, "home_baseline", _),
        "fit_bt": accepting(models, "fit_bt", _, _, penalty=_, tol=_, max_iter=_),
        "fit_mov": accepting(models, "fit_mov", _, _, penalty=_),
        "predict_bt": accepting(models, "predict_bt", _, _),
        "predict_mov": accepting(models, "predict_mov", _, _),
        "bt_rule": accepting(models, "bt_predicts_home_win", _),
        "mov_rule": accepting(models, "mov_predicts_home_win", _),
        "info_metric": accepting(models, "info_metric", _),
        "FitError": public(pkg["errors"], "FitError"),
    }


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, trace_id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter_ns(), None, parent, self.trace_id])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter_ns()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def seconds(self, name: str, trace_id: str | None = None) -> float:
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and (trace_id is None or s[4] == trace_id)) / 1e9

    def calls(self, name: str, trace_id: str | None = None) -> int:
        return sum(1 for s in self.spans
                   if s[0] == name and (trace_id is None or s[4] == trace_id))

    def dump(self, path: Path, extra: dict) -> None:
        payload = {"span_fields": ["name", "start_ns", "end_ns", "parent", "trace_id"],
                   "spans": self.spans, **extra}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


@contextmanager
def patched(tracer: Tracer, targets):
    """Temporarily replace ``module.attr`` with a traced wrapper."""
    saved = []
    for module, attr, name in targets:
        fn = getattr(module, attr, None)
        if fn is not None:
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def _mean_sd(values):
    if not values:
        return float("nan"), float("nan")
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0


def _sign(game) -> int:
    return (game.margin > 0) - (game.margin < 0)


def replay_season(tr: Tracer, fns: dict, season, config, counts: Counter) -> list[dict]:
    """Evaluate every (fraction, replicate) cell through the public
    functions, then reduce to CurvePoint fields as ``run_protocol`` does."""
    make_split, home_baseline = fns["make_split"], fns["home_baseline"]
    fit_bt, fit_mov = fns["fit_bt"], fns["fit_mov"]
    predict_bt, predict_mov = fns["predict_bt"], fns["predict_mov"]
    bt_rule, mov_rule, info_metric = fns["bt_rule"], fns["mov_rule"], fns["info_metric"]
    fit_error = fns["FitError"]

    results = {f: [] for f in config.x_grid}
    for f in config.x_grid:
        for k in range(config.replicates):
            tr.trace_id = f"{season.season_label}/{f}/{k}"
            with tr.span("harness.cell"):
                with tr.span("harness.split"):
                    split = make_split(season, config, f, k)
                with tr.span("harness.baseline"):
                    baseline = home_baseline(split.test)
                counts["harness.cells"] += 1

                bt_acc = None
                counts["models.bt_fits"] += 1
                try:
                    with tr.span("models.bt_fit"):
                        bt = fit_bt(split.train, season.teams, penalty=config.bt_penalty,
                                    tol=config.bt_tol, max_iter=config.bt_max_iter)
                except fit_error as exc:
                    counts["models.bt_failures"] += 1
                    counts["models.bt_newton_iters"] += exc.iterations
                else:
                    counts["models.bt_newton_iters"] += bt.iterations
                    with tr.span("models.score"):
                        bt_acc = info_metric((bt_rule(predict_bt(bt, g)), _sign(g))
                                             for g in split.test)
                    counts["models.games_scored"] += len(split.test)

                mov_acc = None
                counts["models.mov_fits"] += 1
                try:
                    with tr.span("models.mov_fit"):
                        mov = fit_mov(split.train, season.teams, penalty=config.mov_penalty)
                except fit_error:
                    pass
                else:
                    with tr.span("models.score"):
                        mov_acc = info_metric((mov_rule(predict_mov(mov, g)), _sign(g))
                                              for g in split.test)
                    counts["models.games_scored"] += len(split.test)
            results[f].append((bt_acc, mov_acc, baseline))

    per_game = 2.0 * len(season.games) / len(season.teams)
    points = []
    for f in config.x_grid:
        rows = results[f]
        bt = [r[0] for r in rows if r[0] is not None]
        mov = [r[1] for r in rows if r[1] is not None]
        mean_bt, sd_bt = _mean_sd(bt)
        mean_mov, sd_mov = _mean_sd(mov)
        points.append({
            "fraction": f, "games_per_team": f * per_game,
            "mean_bt_acc": mean_bt, "sd_bt_acc": sd_bt,
            "mean_mov_acc": mean_mov, "sd_mov_acc": sd_mov,
            "baseline_acc": float(np.mean([r[2] for r in rows])),
            "bt_failures": len(rows) - len(bt), "mov_failures": len(rows) - len(mov),
        })
    return points


def same_points(ref, replayed: list[dict]) -> bool:
    """Bit-for-bit equality; repr keeps NaN == NaN and tells -0.0 from 0.0."""
    ref = [dataclasses.asdict(p) for p in ref]
    return len(ref) == len(replayed) and all(
        a.keys() == b.keys() and all(repr(a[key]) == repr(b[key]) for key in a)
        for a, b in zip(ref, replayed))


def run_traced(wl: wk.Workload, seed: int, work: Path) -> dict:
    tr = Tracer()
    runner = wk.CliRunner()

    def on_import(cli):
        tr.trace_id = "setup"
        cli.generate_season = tr.wrap(public(cli, "generate_season"), "synth.generate")

    inputs = wk.set_up(wl, seed, work / "setup", work / "out", runner, on_import)
    pkg = {name: sys.modules.get(f"seasoninfo.{name}")
           for name in ("ingest", "harness", "models", "analysis", "errors", "cli")}

    metrics: dict[str, float] = {}
    missing: dict[str, str] = {}
    problems: list[str] = []

    if tr.calls("synth.generate"):
        metrics["synth.generate_s"] = tr.seconds("synth.generate")
    else:
        missing["synth.generate_s"] = "cli.generate_season is not called"

    layers = per_layer_units()
    try:
        fns = resolve_layers(pkg)
    except MissingLayer as exc:
        for name in layers:
            if name.split(".")[0] in ("ingest", "harness", "models", "trace"):
                missing[name] = str(exc)
    else:
        try:
            _trace_cells(tr, fns, wl, seed, inputs, metrics, problems)
        except Exception:
            problems.append("traced curve replay raised:\n" + traceback.format_exc())

    # The summaries read this round's curve files; --jobs 2 writes the
    # same bytes sooner. Checking them against --jobs 1 on the pool
    # workload here keeps that check out of the end-to-end runs.
    wk.run_curve_round(wl, seed, inputs, runner, jobs=2)
    if wl.jobs > 1:
        wk.check_jobs_invariance(wl, seed, inputs, runner)
    _trace_summary(tr, pkg, wl, inputs, runner, metrics, missing)

    for name in layers:
        if name not in metrics:
            missing.setdefault(name, "not measured")
    counted = {k: metrics[k] for k in EXACT_COUNTS if k in metrics}
    tr.dump(work / "trace.json", {"counts": counted, "missing": missing})
    return {"metrics": metrics, "missing": missing, "problems": problems,
            "counts": counted, "runner": runner}


def _trace_cells(tr, fns, wl, seed, inputs, metrics, problems):
    seasons = []
    for lg in wl.leagues:
        for path in inputs.seasons[lg]:
            tr.trace_id = f"parse/{path.stem}"
            with open(path, "rb") as fh, tr.span("ingest.parse"):
                seasons.append(fns["parse_season"](fh, fns["League"](lg), path.stem))
    metrics["ingest.parse_s"] = tr.seconds("ingest.parse")
    metrics["ingest.games"] = sum(len(s.games) for s in seasons)

    config = fns["ProtocolConfig"](master_seed=seed)  # the CLI's defaults
    run_protocol = fns["run_protocol"]
    counts = Counter({name: 0 for name in CELL_COUNTS})
    serial = parallel = replay = 0.0
    for season in seasons:
        # Untraced and traced runs of a season back to back, so machine
        # drift between them stays small.
        start = perf_counter()
        ref = run_protocol(season, config, jobs=1)
        serial += perf_counter() - start
        start = perf_counter()
        with tr.span("replay"):
            mine = replay_season(tr, fns, season, config, counts)
        replay += perf_counter() - start
        if not same_points(ref, mine):
            problems.append(f"traced replay differs from run_protocol on {season.season_label}")
        start = perf_counter()
        points = run_protocol(season, config, jobs=2)
        parallel += perf_counter() - start
        if not same_points(ref, [dataclasses.asdict(p) for p in points]):
            problems.append(f"run_protocol jobs=2 differs from jobs=1 on {season.season_label}")
    metrics["harness.protocol_s"] = serial
    metrics["harness.parallel_speedup"] = serial / parallel

    layers = {"harness.split_s": "harness.split", "harness.baseline_s": "harness.baseline",
              "models.bt_fit_s": "models.bt_fit", "models.mov_fit_s": "models.mov_fit",
              "models.score_s": "models.score"}
    for metric, span in layers.items():
        metrics[metric] = tr.seconds(span)
    metrics["harness.other_s"] = serial - sum(metrics[m] for m in layers)
    metrics["trace.overhead_s"] = replay - serial
    metrics.update(counts)


def _trace_summary(tr, pkg, wl, inputs, runner, metrics, missing):
    cli, analysis = pkg["cli"], pkg["analysis"]
    targets = [(cli, "main", "cli.summary"),
               (cli, "read_curve_file", "cli.read_curve"),
               (cli, "summarize_league", "analysis.summarize"),
               (analysis, "fit_breakpoint", "analysis.breakpoint")]
    runs = []
    with patched(tr, targets):
        for i in range(SUMMARY_RUNS):
            tr.trace_id = f"summary{i}"
            if wk.run_summary(wl, inputs, runner) is not None:
                runs.append(tr.trace_id)
    if not runs:
        return  # every summary invocation failed; the metrics are not measured

    def per_run(span):
        return statistics.median(tr.seconds(span, r) for r in runs)

    for metric, span in (("cli.read_curve_s", "cli.read_curve"),
                         ("analysis.summarize_s", "analysis.summarize"),
                         ("analysis.breakpoint_s", "analysis.breakpoint")):
        if tr.calls(span, runs[0]):
            metrics[metric] = per_run(span)
        else:
            missing[metric] = f"{span} is not called by summary"
    calls = tr.calls("analysis.breakpoint", runs[0])
    if calls:
        metrics["analysis.breakpoint_calls"] = calls
        metrics["analysis.lstsq_solves"] = calls * 1000  # computed: 999 hinge fits + 1 line
    if "cli.read_curve_s" in metrics and "analysis.summarize_s" in metrics:
        metrics["cli.summary_other_s"] = statistics.median(
            tr.seconds("cli.summary", r) - tr.seconds("cli.read_curve", r)
            - tr.seconds("analysis.summarize", r) for r in runs)
