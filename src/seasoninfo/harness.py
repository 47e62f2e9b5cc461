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
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .batch import fit_bt_batch, fit_mov_batch, linear_predictor, win_probability
from .ingest import Game, Season, encode_games
from .models import bt_predicts_home_win, mov_predicts_home_win, score

DEFAULT_X_GRID = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
# Season games per work unit, summed over its replicates. A unit pays numpy's
# per-call overhead once for all its replicates; its temporaries (per-game
# arrays and stacked team-by-team systems) grow with it, and at this size
# they peak near 0.6 MB on 16- to 162-game seasons.
BUDGET = 5000


@dataclass(frozen=True)
class ProtocolConfig:
    x_grid: tuple[float, ...] = DEFAULT_X_GRID
    replicates: int = 100
    master_seed: int = 0
    bt_penalty: float = 1.0
    mov_penalty: float = 1.0
    bt_tol: float = 1e-8
    bt_max_iter: int = 100

    def __post_init__(self):
        object.__setattr__(self, "x_grid", tuple(self.x_grid))
        if not self.x_grid:
            raise ConfigError("x_grid is empty")
        for f in self.x_grid:
            if not 0.0 < f < 1.0:
                raise ConfigError(f"fraction {f} is not strictly between 0 and 1")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if not (math.isfinite(self.bt_penalty) and self.bt_penalty > 0):
            raise ConfigError(f"bt_penalty must be finite and positive, got {self.bt_penalty}")
        if not (math.isfinite(self.mov_penalty) and self.mov_penalty >= 0):
            raise ConfigError(
                f"mov_penalty must be finite and non-negative, got {self.mov_penalty}")


@dataclass(frozen=True)
class Split:
    train: tuple[Game, ...]
    test: tuple[Game, ...]
    fraction: float
    replicate_index: int
    seed: int


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
    """Stable 64-bit seed for one (fraction, replicate) cell."""
    payload = struct.pack(
        "<Qdq", master_seed & 0xFFFFFFFFFFFFFFFF, float(fraction), replicate
    )
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def train_size(fraction: float, n_games: int) -> int:
    """Banker's rounding of fraction * n_games, the spec'd train size.
    Raises ConfigError if it leaves an empty train or test set."""
    m = round(fraction * n_games)
    if m < 1 or m >= n_games:
        raise ConfigError(f"fraction {fraction} of {n_games} games leaves "
                          "an empty train or test set")
    return m


def _split_indices(n_games: int, config: ProtocolConfig, fraction: float, replicates):
    """Train and test game indices, ascending, one row per listed replicate."""
    m = train_size(fraction, n_games)
    chosen = np.zeros((len(replicates), n_games), dtype=bool)
    for row, k in zip(chosen, replicates):
        rng = np.random.default_rng(split_seed(config.master_seed, fraction, k))
        row[rng.permutation(n_games)[:m]] = True
    games = np.broadcast_to(np.arange(n_games), chosen.shape)
    return games[chosen].reshape(len(chosen), m), games[~chosen].reshape(len(chosen), -1)


def make_split(season: Season, config: ProtocolConfig, fraction: float,
               replicate: int) -> Split:
    train, test = _split_indices(len(season.games), config, fraction, [replicate])
    return Split(train=tuple(season.games[i] for i in train[0].tolist()),
                 test=tuple(season.games[i] for i in test[0].tolist()),
                 fraction=fraction, replicate_index=replicate,
                 seed=split_seed(config.master_seed, fraction, replicate))


def home_baseline(test) -> float:
    """Credit of the always-pick-home rule: wins count 1, ties 0.5."""
    games = list(test)
    if not games:
        raise ValueError("empty test set")
    return score(True, [g.margin for g in games])


def evaluate_chunk(columns, n_teams: int, config: ProtocolConfig, fraction: float,
                   replicates) -> list[tuple[float | None, float, float]]:
    """BT accuracy (None if its fit failed), MOV accuracy and home-pick
    baseline of each listed replicate of one fraction; ``columns`` is
    ``encode_games`` of the season over its sorted teams. The replicates
    are fitted together, each exactly as it would be alone."""
    train_idx, test_idx = _split_indices(len(columns[2]), config, fraction, replicates)
    train = [col[train_idx] for col in columns]
    home, away, margin = (col[test_idx] for col in columns)
    del train_idx, test_idx

    coef = fit_mov_batch(*train, n_teams, penalty=config.mov_penalty)
    mov_acc = score(mov_predicts_home_win(linear_predictor(coef, home, away)), margin)
    coef, _, gnorm = fit_bt_batch(*train, n_teams, penalty=config.bt_penalty,
                                  tol=config.bt_tol, max_iter=config.bt_max_iter)
    del train
    pi = win_probability(linear_predictor(coef, home, away))
    bt_acc = score(bt_predicts_home_win(pi), margin)
    return [(bt if ok else None, mov, base) for bt, ok, mov, base
            in zip(bt_acc, (gnorm <= config.bt_tol).tolist(), mov_acc, score(True, margin))]


_WORKER_STATE: tuple | None = None


def _worker_init(columns, n_teams: int, config: ProtocolConfig) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (columns, n_teams, config)


def _worker_eval(task: tuple[float, range]):
    return evaluate_chunk(*_WORKER_STATE, *task)


def _chunks(config: ProtocolConfig, n_games: int, jobs: int) -> list[tuple[float, range]]:
    """(fraction, replicates) work units. A unit holds about BUDGET games
    over its replicates; with workers, each fraction splits into at least
    two units per worker so that a one-fraction call keeps them all busy."""
    size = max(1, BUDGET // n_games)
    if jobs > 1:
        size = min(size, -(-config.replicates // (2 * jobs)))
    return [(f, range(lo, min(lo + size, config.replicates)))
            for f in config.x_grid for lo in range(0, config.replicates, size)]


def _mean_sd(values: list[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return mean, sd


def run_protocol(season: Season, config: ProtocolConfig, jobs: int = 1) -> list[CurvePoint]:
    """Run the full grid: K seeded splits per fraction, both models fit per
    split, accuracies averaged. Replicates whose fit fails are dropped
    from that model's average and counted in the output.

    ``jobs`` only controls parallelism; results are reduced by
    (fraction, replicate) key and are bit-identical for any job count.
    """
    n = len(season.games)
    for f in config.x_grid:
        train_size(f, n)  # fail before any work starts
    state = (encode_games(season.games, sorted(season.teams)), len(season.teams), config)

    tasks = _chunks(config, n, jobs)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_worker_init,
                                 initargs=state) as pool:
            cells = pool.map(_worker_eval, tasks)
            results = {(f, k): cell for (f, ks), chunk in zip(tasks, cells)
                       for k, cell in zip(ks, chunk)}
    else:
        results = {(f, k): cell for f, ks in tasks
                   for k, cell in zip(ks, evaluate_chunk(*state, f, ks))}

    games_per_team = 2.0 * n / len(season.teams)
    points = []
    for f in config.x_grid:
        rows = [results[f, k] for k in range(config.replicates)]
        bt_vals = [bt for bt, _, _ in rows if bt is not None]
        mean_bt, sd_bt = _mean_sd(bt_vals)
        mean_mov, sd_mov = _mean_sd([mov for _, mov, _ in rows])
        baseline = float(np.mean([base for _, _, base in rows]))
        points.append(
            CurvePoint(
                fraction=f,
                games_per_team=f * games_per_team,
                mean_bt_acc=mean_bt,
                sd_bt_acc=sd_bt,
                mean_mov_acc=mean_mov,
                sd_mov_acc=sd_mov,
                baseline_acc=baseline,
                bt_failures=len(rows) - len(bt_vals),
                mov_failures=0,  # the closed-form margin fit cannot fail
            )
        )
    return points
