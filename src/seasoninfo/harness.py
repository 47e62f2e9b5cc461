"""Subsampling protocol: seeded train/test splits over a fraction grid,
model fits per split, out-of-sample accuracy averaged over replicates.

Every split is derived from a stable hash of (master seed, fraction,
replicate), so any subset of the work can be regenerated independently
and the result is a pure function of (season, config) no matter how many
worker processes evaluate it.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import numbers
import os
import struct
from dataclasses import dataclass
from itertools import compress
from typing import ClassVar

import numpy as np

from .errors import ConfigError
from .ingest import Game, Season
from .models import (DEFAULT_MAX_ITER, DEFAULT_PENALTY, DEFAULT_TOL, bt_predicts_home_win,
                     fit_bt_batch, fit_mov_batch, linear_predictor, mov_predicts_home_win, score,
                     win_probability)

DEFAULT_X_GRID = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
# A work unit pays numpy's per-call overhead once for all its replicates;
# its tracemalloc peak stays within UNIT_BYTES. The budget comes from a sweep
# of CPU per replicate against unit size on the four league shapes of
# acceptance criterion 7 (BENCH_13.json): smaller units spread the overhead
# over fewer replicates, and units that peak past about 2-3 MB outgrow a
# 4 MiB L2 cache, so time per replicate rises again. Per replicate, a unit
# peaks below GAME_BYTES per season game plus TEAM_BYTES per entry of a
# (teams + 1)^2 system (measured).
UNIT_BYTES = 2_500_000
GAME_BYTES, TEAM_BYTES = 46, 21


@dataclass(frozen=True)
class ProtocolConfig:
    x_grid: tuple[float, ...] = DEFAULT_X_GRID
    replicates: int = 100
    master_seed: int = 0
    bt_penalty: float = DEFAULT_PENALTY
    mov_penalty: float = DEFAULT_PENALTY
    bt_tol: ClassVar[float] = DEFAULT_TOL
    bt_max_iter: ClassVar[int] = DEFAULT_MAX_ITER

    def __post_init__(self):
        object.__setattr__(self, "x_grid", tuple(self.x_grid))
        if not self.x_grid:
            raise ConfigError("x_grid is empty")
        if len(set(self.x_grid)) < len(self.x_grid):
            raise ConfigError(f"x_grid repeats a fraction: {self.x_grid}")
        for f in self.x_grid:
            if not 0.0 < f < 1.0:
                raise ConfigError(f"fraction {f} is not strictly between 0 and 1")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ConfigError(f"master_seed must be an integer, got {seed!r}")
        object.__setattr__(self, "master_seed", int(seed))  # a numpy int is held as an int
        if not 0 <= self.master_seed < 2**64:  # split_seed packs it as 64 unsigned bits
            raise ConfigError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if not (math.isfinite(self.bt_penalty) and self.bt_penalty > 0):
            raise ConfigError(f"bt_penalty must be finite and positive, got {self.bt_penalty}")
        if not (math.isfinite(self.mov_penalty) and self.mov_penalty >= 0):
            raise ConfigError(
                f"mov_penalty must be finite and non-negative, got {self.mov_penalty}")


@dataclass(frozen=True)
class Split:
    train: tuple[Game, ...]
    test: tuple[Game, ...]


@dataclass(frozen=True)
class CurvePoint:
    fraction: float
    games_per_team: float
    mean_bt_acc: float
    sd_bt_acc: float
    mean_mov_acc: float
    sd_mov_acc: float
    baseline_acc: float
    bt_failures: int
    mov_failures: int


def split_seed(master_seed: int, fraction: float, replicate: int) -> int:
    """Stable 64-bit seed for one (fraction, replicate) cell; ``master_seed``
    lies in [0, 2**64)."""
    payload = struct.pack("<Qdq", master_seed, float(fraction), replicate)
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def train_size(fraction: float, n_games: int) -> int:
    """Banker's rounding of fraction * n_games, the spec'd train size.
    Raises ConfigError if it leaves an empty train or test set."""
    m = round(fraction * n_games)
    if m < 1 or m >= n_games:
        raise ConfigError(f"fraction {fraction} of {n_games} games leaves "
                          "an empty train or test set")
    return m


def _train_mask(n_games: int, config: ProtocolConfig, fraction: float, replicates):
    """(replicates, n_games) mask of each listed replicate's train games: the
    first train_size games of its seeded permutation. It depends on the
    season only through n_games, so seasons of one length share it."""
    m = train_size(fraction, n_games)
    chosen = np.zeros((len(replicates), n_games), dtype=bool)
    for row, k in zip(chosen, replicates):
        row[np.random.default_rng(split_seed(config.master_seed, fraction, k))
            .permutation(n_games)[:m]] = True
    return chosen


def _marked(chosen):
    """Column indices, ascending, of each row's True entries; every row of
    ``chosen`` holds the same number of them."""
    idx = np.flatnonzero(chosen).reshape(len(chosen), -1)
    idx -= (np.arange(len(chosen)) * chosen.shape[1])[:, None]  # row k's flat index start
    return idx


def make_split(season: Season, config: ProtocolConfig, fraction: float,
               replicate: int) -> Split:
    (chosen,) = _train_mask(len(season.rows), config, fraction, [replicate]).tolist()
    return Split(train=tuple(compress(season.games, chosen)),
                 test=tuple(compress(season.games, (not train for train in chosen))))


def home_baseline(test) -> float:
    """Credit of the always-pick-home rule: wins count 1, ties 0.5."""
    games = list(test)
    if not games:
        raise ValueError("empty test set")
    return score(True, [g.margin for g in games])


def _evaluate_split(columns, n_teams: int, config: ProtocolConfig,
                    chosen) -> list[tuple[float | None, float, float]]:
    """BT accuracy (None if its fit failed), MOV accuracy and home-pick
    baseline of each replicate of one fraction whose train games a row of
    ``chosen`` marks (``_train_mask``), fitted together and each exactly as
    alone; ``columns`` encode the season (``Season.columns``), and
    ``chosen`` is left unchanged."""
    train_idx = _marked(chosen)
    train = [col[train_idx] for col in columns]
    del train_idx
    mov = fit_mov_batch(*train, n_teams, penalty=config.mov_penalty)
    bt, _, gnorm = fit_bt_batch(*train, n_teams, penalty=config.bt_penalty,
                                tol=config.bt_tol, max_iter=config.bt_max_iter)
    del train  # the test games are gathered only once the fits are done
    test_idx = _marked(~chosen)
    home, away, margin = (col[test_idx] for col in columns)
    del test_idx
    off = (np.arange(len(margin)) * (n_teams + 1))[:, None]
    home, away = home + off, away + off  # flat keys into either model's coefficients
    mov_acc = score(mov_predicts_home_win(linear_predictor(mov, home, away)), margin)
    eta = linear_predictor(bt, home, away)
    bt_acc = score(bt_predicts_home_win(win_probability(eta, out=eta)), margin)
    return [(bt if ok else None, mov, base) for bt, ok, mov, base
            in zip(bt_acc, (gnorm <= config.bt_tol).tolist(), mov_acc, score(True, margin))]


def _replicate_bytes(n_games: int, n_teams: int) -> int:
    return GAME_BYTES * n_games + TEAM_BYTES * (n_teams + 1) ** 2


def _chunks(config: ProtocolConfig, n_games: int, n_teams: int,
            jobs: int) -> list[tuple[float, range]]:
    """(fraction, replicates) work units of seasons of ``n_games`` games and
    at most ``n_teams`` teams for ``jobs`` workers. A unit holds as many
    replicates as fit in UNIT_BYTES; with workers, each fraction splits into
    at least two units per worker so that a one-fraction call keeps them all
    busy."""
    size = max(1, UNIT_BYTES // _replicate_bytes(n_games, n_teams))
    if jobs > 1:
        size = min(size, -(-config.replicates // (2 * jobs)))
    return [(f, range(lo, min(lo + size, config.replicates)))
            for f in config.x_grid for lo in range(0, config.replicates, size)]


def _evaluate_share(send, states, config, share) -> None:
    """Helper process body: send back ``_evaluate_units``' cells of
    ``share``, or the exception raised in their place, once."""
    try:
        result = _evaluate_units(states, config, share)
    except Exception as exc:  # re-raised by the caller
        result = exc
    send.send(result)
    send.close()


def _evaluate_units(states, config, groups) -> dict:
    """``_evaluate_split``'s cells of each (seasons, fraction, replicates)
    group, keyed (season, fraction, replicate); ``states`` holds each
    season's (columns, n_teams). A group's seasons are all of one length and
    share one draw of its train mask, which lives only while the group runs."""
    cells = {}
    for seasons, f, ks in groups:
        chosen = _train_mask(len(states[seasons[0]][0][2]), config, f, ks)
        for s in seasons:
            cells.update(((s, f, k), cell) for k, cell
                         in zip(ks, _evaluate_split(*states[s], config, chosen)))
    return cells


def _narrow(col):
    """``col`` in the smallest integer type that holds it: columns are only
    compared, or added to wider index arrays."""
    return col.astype(np.result_type(np.min_scalar_type(col.min()), np.min_scalar_type(col.max())))


def _mean_sd(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if not len(arr):
        return float("nan"), float("nan")
    return float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0


def run_protocol(season: Season, config: ProtocolConfig, jobs: int = 1) -> list[CurvePoint]:
    """Run the full grid: K seeded splits per fraction, both models fit per
    split, accuracies averaged. Replicates whose fit fails are dropped
    from that model's average and counted in the output. ``jobs`` only
    controls parallelism, as for ``run_seasons``."""
    (points,) = run_seasons([season], config, jobs)
    return points


def run_seasons(seasons, config: ProtocolConfig, jobs: int = 1,
                schedule: dict | None = None) -> list[list[CurvePoint]]:
    """``run_protocol``'s points for each of ``seasons``, from one schedule
    of workers for them all.

    A work unit's split depends on its season only through the game count,
    so units are cut once per season length, sized for that length's largest
    team count, and each (fraction, replicates) unit of a length is a group
    holding all its seasons. Whole groups are dealt into fixed interleaved
    shares, one per worker, and each share is evaluated by
    ``_evaluate_units``. Workers number at most ``jobs``, the usable CPUs and
    the groups, and one per two UNIT_BYTES of the call's work. The caller
    evaluates the first share and a helper process each other one; it merges
    every share's cells, keyed (season, fraction, replicate), so results are
    bit-identical for any job count. If ``schedule`` is a dict, it gets the
    ``workers`` used and the ``units`` evaluated.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    for season in seasons:
        for f in config.x_grid:
            train_size(f, len(season.rows))  # fail before any work starts
    states = [(tuple(map(_narrow, season.columns)), len(season.teams)) for season in seasons]
    call_bytes = len(config.x_grid) * config.replicates * sum(
        _replicate_bytes(len(season.rows), len(season.teams)) for season in seasons)
    # More workers than the CPUs this process may use only take turns, and
    # starting a helper costs about one unit's CPU, so a worker is added only
    # for every two full units of work.
    jobs = min(jobs, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1, max(1, call_bytes // (2 * UNIT_BYTES)))
    lengths = {}  # game count -> its seasons, in order of first use
    for s, season in enumerate(seasons):
        lengths.setdefault(len(season.rows), []).append(s)
    tasks = [(tuple(ss), f, ks) for n, ss in lengths.items()
             for f, ks in _chunks(config, n, max(states[s][1] for s in ss), jobs)]
    workers = max(1, min(jobs, len(tasks)))  # no task only for no season
    if schedule is not None:
        schedule.update(workers=workers, units=sum(len(ss) for ss, _, _ in tasks))
    shares = [tasks[i::workers] for i in range(workers)]
    helpers = []  # (process, read end of its pipe)
    try:
        for share in shares[1:]:
            recv, send = multiprocessing.Pipe(duplex=False)
            helper = multiprocessing.Process(target=_evaluate_share,
                                             args=(send, states, config, share))
            helper.start()
            send.close()  # the helper's death then ends the pipe, and no later helper holds it
            helpers.append((helper, recv))
        cells = _evaluate_units(states, config, shares[0])
        for helper, recv in helpers:
            try:
                got = recv.recv()
            except EOFError:
                helper.join()
                raise RuntimeError(f"a --jobs helper process exited with code "
                                   f"{helper.exitcode} without sending its results") from None
            if isinstance(got, Exception):
                raise got
            cells.update(got)
    finally:
        for helper, recv in helpers:
            helper.terminate()  # one not yet read may be blocked sending; a read one is done
            recv.close()
            helper.join()
    return [[_point(season, f, [cells[s, f, k] for k in range(config.replicates)])
             for f in config.x_grid] for s, season in enumerate(seasons)]


def _point(season: Season, fraction: float, rows) -> CurvePoint:
    """One season's curve point at ``fraction`` from its replicates' cells."""
    bt_vals = [bt for bt, _, _ in rows if bt is not None]
    return CurvePoint(  # the closed-form margin fit cannot fail
        fraction, fraction * (2.0 * len(season.rows) / len(season.teams)), *_mean_sd(bt_vals),
        *_mean_sd([mov for _, mov, _ in rows]), float(np.mean([b for _, _, b in rows])),
        bt_failures=len(rows) - len(bt_vals), mov_failures=0)
