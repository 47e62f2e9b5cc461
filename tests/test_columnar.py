"""The array path that ``run_protocol`` takes against the public ``Game``
path, bit for bit.

``run_protocol`` encodes a season once and evaluates each cell on index
arrays; ``make_split`` -> ``home_baseline``, ``fit_bt``/``fit_mov`` ->
``predict_*`` -> decision rule -> ``info_metric`` is the reference
semantics. The fitters' former constructions (two ``np.subtract.at``
passes for the BT Hessian, the dense m x n design of the seen teams for
the MOV normal equations, BT Newton over the seen teams with re-centered
iterates) are restated here as references for the ones that replaced
them, and so is the boolean mask the splits were first taken with. The
full-size margin fit is pinned, bit for bit, to a dense solve of its own
system, and at penalty 0 to least squares; the full-size BT fit, bit for
bit, to plain Newton on one row. Below the BT penalty floor every row with
a decisive game converges; above it, small-season fits keep pinned bits.
Replicates fitted together in chunks must match, bit for bit, the same
replicates fitted one at a time, whatever the work units' size. Newton
computes the objective only where a step did not shrink the gradient
norm.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from seasoninfo import (
    FitError,
    ProtocolConfig,
    SynthSpec,
    fit_bt,
    fit_mov,
    generate_season,
    home_baseline,
    info_metric,
    make_split,
    predict_bt,
    predict_mov,
    run_protocol,
)
from seasoninfo import harness, models
from seasoninfo.harness import (_chunks, _evaluate_split, _evaluate_units, _marked, _narrow,
                                _train_mask, split_seed, train_size)
from seasoninfo.models import (
    _bt_hessian,
    _pair_keys,
    bt_predicts_home_win,
    fit_bt_batch,
    fit_mov_batch,
    mov_predicts_home_win,
    score,
)
from conftest import game_from_margin, season_of
from oracles import enum_home_baseline, enum_info_metric
from test_acceptance import FOUR_LEAGUES


def _sign(margin: int) -> int:
    return (margin > 0) - (margin < 0)


def scalar_cell(season, config, fraction, replicate):
    """One cell through the public Game-based functions."""
    split = make_split(season, config, fraction, replicate)
    baseline = home_baseline(split.test)
    try:
        bt = fit_bt(split.train, season.teams, penalty=config.bt_penalty,
                    tol=config.bt_tol, max_iter=config.bt_max_iter)
    except FitError:
        bt_acc = None
    else:
        bt_acc = info_metric((bt_predicts_home_win(predict_bt(bt, g)), _sign(g.margin))
                             for g in split.test)
    mov = fit_mov(split.train, season.teams, penalty=config.mov_penalty)
    mov_acc = info_metric((mov_predicts_home_win(predict_mov(mov, g)), _sign(g.margin))
                          for g in split.test)
    return bt_acc, mov_acc, baseline


def _mean_sd(values):
    arr = np.asarray(values, dtype=float)
    if not len(arr):
        return float("nan"), float("nan")
    return float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0


def _ties_season():
    # NHL-like: a fifth of the games tied, including whole train sets'
    # worth at small fractions.
    spec = SynthSpec(n_teams=8, games_per_team=10, seed=5, home_adv=0.2,
                     strength_sd=0.4, mov_scale=0.6, mov_noise_sd=1.2)
    return generate_season(spec)[0]


def _unseen_teams_season():
    # 24 teams with 3 games each: a 12.5% train set leaves most teams unseen.
    spec = SynthSpec(n_teams=24, games_per_team=3, seed=11, home_adv=0.3,
                     strength_sd=1.0, mov_scale=7.0, mov_noise_sd=12.0)
    return generate_season(spec)[0]


def _no_decisive_season():
    # Five ties and one decisive game: train sets without the decisive
    # game make the BT fit fail.
    games = [game_from_margin(i, "A", "B", 0) for i in range(1, 4)]
    games += [game_from_margin(i, "B", "A", 0) for i in range(4, 6)]
    games += [game_from_margin(6, "C", "A", 7)]
    return season_of(games)


SEASONS = {"ties": _ties_season, "unseen_teams": _unseen_teams_season,
           "no_decisive_game": _no_decisive_season}


@pytest.mark.parametrize("name", list(SEASONS))
def test_every_cell_matches_the_scalar_path(name):
    season = SEASONS[name]()
    config = ProtocolConfig(x_grid=(0.125, 0.5, 0.875) if name != "no_decisive_game"
                            else (0.5,), replicates=25, master_seed=17)
    columns = season.columns
    cells = {}
    for f in config.x_grid:
        chunked = {}
        for lo in range(0, config.replicates, 7):
            ks = range(lo, min(lo + 7, config.replicates))
            chosen = _train_mask(len(season.games), config, f, ks)
            chunked.update(zip(ks, _evaluate_split(columns, len(season.teams), config, chosen)))
        for k in range(config.replicates):
            got = chunked[k]
            want = scalar_cell(season, config, f, k)
            assert repr(got) == repr(want), (f, k)
            cells[f, k] = want
    failures = sum(bt is None for bt, _, _ in cells.values())
    if name == "no_decisive_game":
        assert 0 < failures < config.replicates

    for pt in run_protocol(season, config):
        rows = [cells[pt.fraction, k] for k in range(config.replicates)]
        bt = [r[0] for r in rows if r[0] is not None]
        assert repr((pt.mean_bt_acc, pt.sd_bt_acc)) == repr(_mean_sd(bt))
        assert repr((pt.mean_mov_acc, pt.sd_mov_acc)) == repr(_mean_sd([r[1] for r in rows]))
        assert repr(pt.baseline_acc) == repr(float(np.mean([r[2] for r in rows])))
        assert pt.bt_failures == len(rows) - len(bt)


def test_score_matches_metric_enumeration():
    """Criterion 8's patterns through the vectorized credit function."""
    outcomes = (-1, 0, 1)
    for pattern in itertools.product(outcomes, repeat=4):
        games = [game_from_margin(i + 1, "H", "A", 3 * o) for i, o in enumerate(pattern)]
        expected = enum_home_baseline(pattern)
        assert score(True, [3 * o for o in pattern]) == home_baseline(games) == expected
    cells = list(itertools.product([True, False], outcomes))
    for combo in itertools.product(cells, repeat=4):
        called = np.array([c for c, _ in combo])
        margins = np.array([7 * o for _, o in combo])
        assert score(called, margins) == info_metric(combo) == enum_info_metric(combo)


def _random_games(rng, n_teams, m, tie_share=0.2):
    h = rng.integers(0, n_teams, m)
    a = (h + 1 + rng.integers(0, n_teams - 1, m)) % n_teams
    margin = rng.integers(-9, 10, m)
    margin[rng.random(m) < tie_share] = 0
    return h.astype(np.intp), a.astype(np.intp), margin


def subtract_at_hessian(pi, h, a, n, penalty):
    """The negated BT Hessian from two ``np.subtract.at`` passes."""
    wt = pi * (1.0 - pi)
    ref = np.zeros((n + 1, n + 1))
    dh = np.bincount(h, weights=wt, minlength=n)
    da = np.bincount(a, weights=wt, minlength=n)
    ref[np.arange(n), np.arange(n)] = dh + da
    np.subtract.at(ref, (h, a), wt)
    np.subtract.at(ref, (a, h), wt)
    ref[:n, n] = dh - da
    ref[n, :n] = ref[:n, n]
    ref[n, n] = wt.sum()
    ref[np.arange(n + 1), np.arange(n + 1)] += penalty
    return ref


def test_bt_hessian_equals_subtract_at_construction():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        h, a, _ = _random_games(rng, n, int(rng.integers(1, 60)))
        pi = rng.uniform(0.01, 0.99, len(h))
        penalty = float(rng.uniform(0.1, 3.0))
        ref = subtract_at_hessian(pi, h, a, n, penalty)
        pairs = _pair_keys(h[None], a[None], n + 1)
        got = _bt_hessian(pi[None], h[None], a[None], pairs, n, penalty)[0]
        assert got.tobytes() == ref.tobytes()


def dense_mov_coef(h, a, margin, n_teams, penalty):
    """Margin fit from the dense m x n reduced design and X'X, X'y: the seen
    teams only, the last one's strength the negated sum of the others'."""
    seen = np.unique(np.concatenate([h, a]))
    local = {t: i for i, t in enumerate(seen)}
    hl = np.array([local[t] for t in h])
    al = np.array([local[t] for t in a])
    n, m, last = len(seen), len(h), len(seen) - 1
    X = np.zeros((m, n))
    rows = np.arange(m)
    X[rows[hl != last], hl[hl != last]] += 1.0
    X[rows[hl == last], :last] -= 1.0
    X[rows[al != last], al[al != last]] -= 1.0
    X[rows[al == last], :last] += 1.0
    X[:, -1] = 1.0
    P = np.zeros((n, n))
    P[:last, :last] = penalty * (np.eye(last) + np.ones((last, last)))
    coef = np.linalg.solve(X.T @ X + P, X.T @ margin.astype(float))
    full = np.zeros(n_teams + 1)
    full[seen] = np.append(coef[:last], -coef[:last].sum())
    full[-1] = coef[-1]
    return full


def dense_design(h, a, n_teams):
    """The m x (n_teams + 1) margin design: e_home - e_away + e_adv per game."""
    X = np.zeros((len(h), n_teams + 1))
    rows = np.arange(len(h))
    X[rows, h] += 1.0
    X[rows, a] -= 1.0
    X[:, -1] = 1.0
    return X


def dense_full_mov_coef(h, a, margin, n_teams, penalty):
    """Margin fit from the dense full-size X'X, X'y plus the ridge, 1 on each
    unseen team's diagonal and the seen teams' outer product."""
    X = dense_design(h, a, n_teams)
    seen = np.zeros(n_teams + 1)
    seen[np.concatenate([h, a])] = 1.0
    P = np.diag(np.append(np.full(n_teams, penalty + 1.0), 0.0))
    P += np.outer(seen, seen) - np.diag(seen)
    return np.linalg.solve(X.T @ X + P, X.T @ margin.astype(float))


def test_mov_fit_equals_dense_design_solution():
    rng = np.random.default_rng(1997)
    for _ in range(300):
        n_teams = int(rng.integers(2, 14))
        h, a, margin = _random_games(rng, n_teams, int(rng.integers(1, 80)))
        penalty = float(rng.uniform(0.05, 3.0))
        got = fit_mov_batch(h[None], a[None], margin[None], n_teams, penalty)[0]
        assert got.tobytes() == dense_full_mov_coef(h, a, margin, n_teams, penalty).tobytes()
        reduced = dense_mov_coef(h, a, margin, n_teams, penalty)
        assert np.abs(got - reduced).max() <= 1e-9 * np.abs(reduced).max()


def _mixed_rows(rng, n_teams, m, count):
    """(count, m) game columns whose rows reach different team sets, from
    two teams to all ``n_teams``, so most rows leave teams unseen; about a
    fifth of the games are ties, and the first row has only ties."""
    rows = []
    for i in range(count):
        reach = rng.permutation(n_teams)[:2 + i % (n_teams - 1)]
        h, a, margin = _random_games(rng, len(reach), m)
        rows.append((reach[h], reach[a], margin))
    rows[0][2][:] = 0
    return [np.array(col) for col in zip(*rows)]


def test_mov_stack_rows_equal_their_one_row_dense_solutions():
    """The margin systems of a K-row stack are built game by game over the
    whole stack; each row's fit is, bit for bit, the dense full-size solve
    of that row alone, whatever the other rows' teams."""
    rng = np.random.default_rng(30)
    for n_teams, m, count in ((9, 12, 11), (32, 16, 40)):
        home, away, margin = _mixed_rows(rng, n_teams, m, count)
        for penalty in (0.3, 1.0, 3.7):
            coef = fit_mov_batch(home, away, margin, n_teams, penalty)
            for i in range(count):
                want = dense_full_mov_coef(home[i], away[i], margin[i], n_teams, penalty)
                assert coef[i].tobytes() == want.tobytes(), (n_teams, penalty, i)


@pytest.mark.parametrize("rows,k,dtype", [
    (1, 46340, np.int32), (1, 46341, np.int64), (2, 32767, np.int32), (2, 32768, np.int64)])
def test_pair_keys_take_64_bits_once_the_stack_needs_them(rows, k, dtype):
    """Pair keys are int32 while rows * k**2 < 2**31 (every real shape) and
    int64 from there on: checked on rows of no games, so no stack is made."""
    empty = np.zeros((rows, 0), dtype=np.intp)
    assert [keys.dtype for keys in _pair_keys(empty, empty, k)] == [dtype, dtype]


def _assert_least_squares_fit(h, a, margin, n_teams, penalty=0.0):
    """The fitted values are the least-squares ones, and teams without a
    game have strength exactly 0."""
    coef = fit_mov_batch(h[None], a[None], margin[None], n_teams, penalty)[0]
    X = dense_design(h, a, n_teams)
    want = X @ np.linalg.lstsq(X, margin.astype(float), rcond=None)[0]
    assert np.abs(X @ coef - want).max() <= 1e-8
    unseen = np.setdiff1d(np.arange(n_teams), np.concatenate([h, a]))
    assert (coef[unseen] == 0.0).all()


def test_mov_fit_at_penalty_0_is_least_squares():
    """Small seasons are often disconnected, or have a home advantage
    confounded with strengths: numerically singular systems that a plain
    solve returns without an error, with strengths near 1e17. A positive
    penalty below the margin fit's floor sqrt(eps) * (m + 1), which LU's
    rounding could swamp, is fitted as penalty 0."""
    rng = np.random.default_rng(1602)
    for _ in range(2000):
        n_teams = int(rng.integers(2, 10))
        games = _random_games(rng, n_teams, int(rng.integers(1, 25)))
        for penalty in (0.0, 1e-15, 1e-300):
            _assert_least_squares_fit(*games, n_teams, penalty)


def test_mov_fit_at_penalty_0_on_an_nfl_shaped_split():
    # Replicate 76 of the 0.125 fraction: once fitted with a strength of 5.9e17.
    season = generate_season(SynthSpec(n_teams=32, games_per_team=16, seed=1602,
                                       home_adv=0.28, strength_sd=1.05, mov_scale=6.0,
                                       mov_noise_sd=13.0))[0]
    config = ProtocolConfig(master_seed=1, mov_penalty=0.0)
    rows = _train_rows(season, config, 0.125)
    _assert_least_squares_fit(*(col[76] for col in rows), len(season.teams))
    together = fit_mov_batch(*rows, len(season.teams), 0.0)
    for k in (0, 76, 99):  # row by row, whatever the other rows
        alone = fit_mov_batch(*(col[k:k + 1] for col in rows), len(season.teams), 0.0)
        assert together[k].tobytes() == alone[0].tobytes()


def test_mov_fit_sums_huge_margins_without_wrapping():
    """The margin fit sums the train margins for its home-advantage entry
    in float: an int64 sum of margins near MAX_SCORE wraps. 20 games
    alternating home A and B, each won 2**62-0 at home, plus 1-0 home wins
    A-B, B-C, C-A and A-C: from 0.25 on, every train set's home advantage
    dwarfs the strengths, so the margin model picks the home team and is
    right in every test game."""
    games = [game_from_margin(i, "AB"[i % 2], "BA"[i % 2], 2**62) for i in range(20)]
    games += [game_from_margin(20 + i, h, a, 1) for i, (h, a) in enumerate(["AB", "BC", "CA", "AC"])]
    points = run_protocol(season_of(games), ProtocolConfig(replicates=5))
    assert [(pt.fraction, pt.mean_mov_acc) for pt in points if pt.fraction >= 0.25] == [
        (f, 1.0) for f in ProtocolConfig().x_grid[1:]]


def _train_rows(season, config, fraction):
    columns = season.columns
    chosen = _train_mask(len(season.games), config, fraction, range(config.replicates))
    train = _marked(chosen)
    return [col[train] for col in columns]


@pytest.mark.parametrize("name", list(SEASONS))
def test_chunked_fits_match_one_replicate_fits(name):
    """Also at penalty 1e-300, below both fits' floors, where each row of a
    unit takes its own least-norm solution."""
    season = SEASONS[name]()
    n_teams = len(season.teams)
    config = ProtocolConfig(replicates=100, master_seed=23)
    fractions = config.x_grid if name != "no_decisive_game" else (0.5,)
    for f, penalty in itertools.product(fractions, (1.0, 1e-300)):
        rows = _train_rows(season, config, f)
        alone = [fit_bt_batch(*(col[k:k + 1] for col in rows), n_teams, penalty)
                 for k in range(100)]
        alone_mov = [fit_mov_batch(*(col[k:k + 1] for col in rows), n_teams, penalty)
                     for k in range(100)]
        for size in (3, 100):
            for lo in range(0, 100, size):
                part = [col[lo:lo + size] for col in rows]
                coef, iterations, gnorm = fit_bt_batch(*part, n_teams, penalty)
                mov = fit_mov_batch(*part, n_teams, penalty)
                for i, k in enumerate(range(lo, min(lo + size, 100))):
                    want_coef, want_iter, want_norm = alone[k]
                    key = (f, penalty, k, size)
                    assert coef[i].tobytes() == want_coef[0].tobytes(), key
                    assert iterations[i] == want_iter[0], key
                    assert gnorm[i:i + 1].tobytes() == want_norm.tobytes(), key
                    assert mov[i].tobytes() == alone_mov[k][0].tobytes(), key
        failed = [np.isnan(norm[0]) for _, _, norm in alone]
        assert any(failed) == (name == "no_decisive_game")


@pytest.mark.parametrize("penalty,n_teams,h,a,margin", [
    (1e-20, 3, [0, 1, 2, 1, 2, 2, 2], [1, 0, 0, 0, 0, 1, 1], [-50, 48, -53, 43, -39, -104, -103]),
    (1e-20, 4, [1, 2, 2, 3, 1, 3, 1, 2], [2, 1, 0, 1, 2, 2, 0, 0],
     [92, -104, -143, -45, 92, 38, -51, -153]),
    # separable rows just above the floor eps * (m + 1), m = 6 games
    (2 * np.finfo(float).eps * 7, 3, [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1],
     [3, 5, -2, 1, -4, -1]),
    (2 * np.finfo(float).eps * 7, 4, [0, 1, 2, 3, 0, 1], [1, 2, 3, 0, 2, 3],
     [1, 1, 1, -1, 2, 2])])
def test_overflowing_steps_leave_no_warning(penalty, n_teams, h, a, margin):
    """Replicates from small seasons whose Newton systems LU would solve
    with near-zero pivots, stepping along the strengths' constant direction
    towards overflow. Below the floor the steps are least-norm. Just above
    it LU solves with the smallest penalty it takes, and separable rows
    drive every game's Hessian weight towards 0. Either way the fit
    converges, finite, with no floating-point warning."""
    coef, _, gnorm = fit_bt_batch(*(np.array([col]) for col in (h, a, margin)), n_teams, penalty)
    assert np.isfinite(coef).all() and np.isfinite(gnorm).all()
    assert (gnorm <= 1e-8).all()


def _small_seasons():
    """Train sets of ten small seasons with wide strength spreads (3-8
    teams, 4-11 games each), 20 replicates at each default fraction: many
    are separable, disconnected or without a decisive game."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n_teams, games = int(rng.integers(3, 9)), int(rng.integers(4, 11))
        spec = SynthSpec(n_teams=n_teams, games_per_team=games + n_teams * games % 2, seed=seed,
                         home_adv=0.3, strength_sd=8.0, mov_scale=7.0, mov_noise_sd=12.0)
        season = generate_season(spec)[0]
        config = ProtocolConfig(replicates=20, master_seed=seed)
        for f in config.x_grid:
            yield (*_train_rows(season, config, f), n_teams)


@pytest.mark.parametrize("penalty", (1e-16, 1e-20, 1e-300))
def test_fits_below_the_floor_converge_with_unseen_strengths_0(penalty):
    """Below the BT floor eps * (m + 1) each Newton step is the row's
    least-norm one: every row with a decisive game converges, and a team
    without a decisive training game keeps strength exactly +0.0."""
    unseen = 0
    for home, away, margin, n_teams in _small_seasons():
        coef, _, gnorm = fit_bt_batch(home, away, margin, n_teams, penalty)
        decisive = margin != 0
        assert (gnorm[decisive.any(axis=1)] <= 1e-8).all()
        for h, a, d, c in zip(home, away, decisive, coef):
            s, seen = c[:-1], np.zeros(n_teams, dtype=bool)
            seen[h[d]] = seen[a[d]] = True
            assert (s[~seen] == 0.0).all() and not np.signbit(s[~seen]).any()
            unseen += (~seen).sum()
    assert unseen


# sha256 of _small_seasons' BT coefficients, iterations and norms, then
# margin coefficients. At 1e-12 the BT fit is above its floor and the margin
# fit below its own; at 1.0 both are above.
SMALL_SEASON_FITS = {
    1e-12: "b2cc0fd757ff6f543482fb2624f5c94a415ea100de5b173e5dfceabede2da8c4",
    1.0: "92d31269c1ba8cf14458decba4b04233bf2018cbc61b55a422c78e68ccca2498",
}


@pytest.mark.parametrize("penalty", list(SMALL_SEASON_FITS))
def test_fits_above_the_bt_floor_keep_their_bits(penalty):
    digest = hashlib.sha256()
    for home, away, margin, n_teams in _small_seasons():
        coef, iterations, gnorm = fit_bt_batch(home, away, margin, n_teams, penalty)
        for x in (coef, iterations.astype(np.int64), gnorm,
                  fit_mov_batch(home, away, margin, n_teams, penalty)):
            digest.update(x.tobytes())
    assert digest.hexdigest() == SMALL_SEASON_FITS[penalty]


def test_bt_fit_of_no_rows_or_of_rows_without_games():
    for shape in ((0, 4), (3, 0)):
        empty = np.zeros(shape, dtype=np.intp)
        coef, iterations, gnorm = fit_bt_batch(empty, empty, empty, 5)
        assert coef.shape == (shape[0], 6) and not coef.any() and not iterations.any()
        assert gnorm.shape == (shape[0],) and np.isnan(gnorm).all()


def mask_split(n_games, config, fraction, replicates):
    """Train and test indices from a boolean mask over each permutation's
    first m games, as the splits were first taken."""
    m = train_size(fraction, n_games)
    chosen = np.zeros((len(replicates), n_games), dtype=bool)
    for row, k in zip(chosen, replicates):
        rng = np.random.default_rng(split_seed(config.master_seed, fraction, k))
        row[rng.permutation(n_games)[:m]] = True
    games = np.broadcast_to(np.arange(n_games), chosen.shape)
    return games[chosen].reshape(len(chosen), m), games[~chosen].reshape(len(chosen), -1)


def split_indices(n_games, config, fraction, replicates):
    """Train and test indices as ``_evaluate_split`` takes them from the mask."""
    chosen = _train_mask(n_games, config, fraction, replicates)
    return _marked(chosen), _marked(~chosen)


def test_split_indices_match_the_mask_construction():
    config = ProtocolConfig(master_seed=31)
    for n_games in (7, 256, 2430):
        for f in config.x_grid:
            got = split_indices(n_games, config, f, range(3, 9))
            want = mask_split(n_games, config, f, range(3, 9))
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (n_games, f)


@pytest.mark.parametrize("n_games,replicates", [
    (256, range(1)), (2430, range(57, 58)),  # one-replicate units
    (256, range(40, 100)), (7, range(99, 100)),  # units that start past replicate 0
    (2, range(5)), (2, range(3, 4)),  # the smallest season with a train and a test game
])
def test_split_indices_of_odd_units_match_the_mask_construction(n_games, replicates):
    config = ProtocolConfig(master_seed=31)
    fractions = [f for f in config.x_grid if 0 < round(f * n_games) < n_games]
    assert fractions
    for f in fractions:
        got = split_indices(n_games, config, f, replicates)
        want = mask_split(n_games, config, f, replicates)
        assert all((g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
                   for g, w in zip(got, want)), (n_games, f)


@pytest.mark.parametrize("name", list(SEASONS))
def test_unit_size_and_jobs_leave_curves_unchanged(monkeypatch, name):
    season = SEASONS[name]()
    config = ProtocolConfig(x_grid=(0.125, 0.5, 0.875) if name != "no_decisive_game"
                            else (0.5,), replicates=25, master_seed=17)
    runs = []
    for budget in (1, harness.UNIT_BYTES, 10**9):
        monkeypatch.setattr(harness, "UNIT_BYTES", budget)
        for jobs in (1, 2):
            points = run_protocol(season, config, jobs=jobs)
            runs.append(repr([dataclasses.asdict(p) for p in points]))
    monkeypatch.undo()
    assert runs == [runs[0]] * len(runs)


def _shaped_season(n_teams, games_per_team, k=0):
    spec = SynthSpec(n_teams=n_teams, games_per_team=games_per_team, seed=games_per_team + k,
                     home_adv=0.2, strength_sd=0.4, mov_scale=4.0, mov_noise_sd=8.0)
    return generate_season(spec)[0]


def _peak(run):
    """``run()``'s tracemalloc peak, after one untraced call for numpy's
    first-call set-up."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_teams,games_per_team", [(30, 162), (30, 82), (32, 16), (64, 32)])
def test_unit_peak_stays_within_the_byte_budget(n_teams, games_per_team):
    """A work unit's tracemalloc peak per replicate stays under the measured
    ceiling the unit size is chosen by, on MLB-, NBA- and NFL-shaped
    seasons and on a 64-team one, where the (teams + 1)^2 systems dominate.
    So does a group of three seasons of one shape, evaluated one after
    another on one shared train mask (one byte per game and replicate), and
    a group of one of them with a season of its length and half its teams,
    as ``run_seasons`` cuts both into units sized for the larger count."""
    states = [(tuple(map(_narrow, season.columns)), n_teams)
              for season in (_shaped_season(n_teams, games_per_team, k) for k in range(3))]
    half = _shaped_season(n_teams // 2, 2 * games_per_team)
    states.append((tuple(map(_narrow, half.columns)), n_teams // 2))
    n_games = len(states[0][0][2])
    config = ProtocolConfig()
    units = _chunks(config, n_games, n_teams, jobs=1)
    size = len(units[0][1])
    ceiling = harness.GAME_BYTES * n_games + harness.TEAM_BYTES * (n_teams + 1) ** 2
    assert size * ceiling <= harness.UNIT_BYTES
    for f in config.x_grid:
        peak = _peak(lambda: _evaluate_units(states[:1], config, [((0,), f, range(size))]))
        assert peak <= size * ceiling, (f, size, peak / size, ceiling)
        peak = _peak(lambda: _evaluate_units(states, config, [((0, 1, 2), f, range(size))]))
        assert peak <= size * ceiling, ("group", f, size, peak / size, ceiling)
        peak = _peak(lambda: _evaluate_units(states, config, [((0, 3), f, range(size))]))
        assert peak <= size * ceiling, ("mixed group", f, size, peak / size, ceiling)


@pytest.mark.parametrize("n_teams,games_per_team,jobs,size", [
    (32, 16, 1, 72), (30, 82, 1, 32), (30, 162, 1, 18),
    (32, 16, 2, 25), (30, 82, 2, 25), (30, 162, 2, 18)])
def test_unit_sizes_are_the_ones_readme_states(n_teams, games_per_team, jobs, size):
    """Replicates per work unit for criterion 7's league shapes (NHL's is
    NBA's) and 100 replicates, as README's --jobs paragraph states them."""
    units = _chunks(ProtocolConfig(), n_teams * games_per_team // 2, n_teams, jobs)
    assert max(len(ks) for _, ks in units) == size


def plain_bt_fit(h, a, margin, n_teams, penalty, tol=1e-8, max_iter=100, floor=1e-12):
    """One replicate's ridge BT fit by damped Newton on all its n_teams + 1
    parameters, written out plainly: the iterates, in the float operations,
    that the lockstep fit of many rows must reproduce bit for bit. A step
    is halved until its scale reaches ``floor``."""
    n, dec, w = n_teams, margin != 0, (margin > 0) * 1.0
    if not dec.any():
        return np.zeros(n + 1), 0, float("nan")

    def evaluate(theta):
        eta = theta[h] - theta[a] + theta[n]
        terms = eta * (1.0 - 2.0 * w)
        terms = np.where(terms > 0.0, terms, 0.0) + np.log1p(np.exp(-np.abs(eta)))
        pi = 1.0 / (1.0 + np.exp(-eta)) * dec
        obj = -(terms * dec).sum() - 0.5 * penalty * (theta @ theta)
        r = w - pi
        grad = np.bincount(h, r, n + 1) - np.bincount(a, r, n + 1) - penalty * theta
        grad[n] = r.sum() - penalty * theta[n]
        return obj, grad, pi, np.sqrt(grad @ grad)

    theta, iterations = np.zeros(n + 1), 0
    obj, grad, pi, gnorm = evaluate(theta)
    while gnorm > tol and iterations < max_iter:
        step = np.linalg.solve(subtract_at_hessian(pi, h, a, n, penalty), grad)
        scale = 1.0
        while True:
            cand = theta + scale * step
            c_obj, c_grad, c_pi, c_gnorm = evaluate(cand)
            if c_obj > obj or c_gnorm < gnorm:
                theta, obj, grad, pi, gnorm = cand, c_obj, c_grad, c_pi, c_gnorm
                iterations += 1
                break
            scale *= 0.5
            if scale <= floor:
                break
        if scale <= floor:
            break
    return theta, iterations, gnorm


def seen_team_bt_fit(h, a, margin, n_teams, penalty, tol=1e-8, max_iter=100):
    """One replicate's ridge BT fit by damped Newton over its seen teams
    only, the teams of its decisive games, each iterate re-centered to
    strengths summing to zero: the fit's earlier form, an oracle for the
    optimum it reaches."""
    coef = np.zeros(n_teams + 1)
    dec = margin != 0
    seen = np.unique(np.concatenate([h[dec], a[dec]]))
    if not seen.size:
        return coef, 0, float("nan")
    n, local = len(seen), np.zeros(n_teams, dtype=np.intp)
    local[seen] = np.arange(n)
    hl, al, w = np.where(dec, local[h], 0), np.where(dec, local[a], 0), (margin > 0) * 1.0

    def evaluate(theta):
        eta = theta[hl] - theta[al] + theta[n]
        terms = eta * (1.0 - 2.0 * w)
        terms = np.where(terms > 0.0, terms, 0.0) + np.log1p(np.exp(-np.abs(eta)))
        pi = 1.0 / (1.0 + np.exp(-eta)) * dec
        obj = -(terms * dec).sum() - 0.5 * penalty * (theta[:n] @ theta[:n] + theta[n] ** 2)
        r = w - pi
        grad = np.bincount(hl, r, n + 1) - np.bincount(al, r, n + 1) - penalty * theta
        grad[n] = r.sum() - penalty * theta[n]
        return obj, grad, pi, np.sqrt(grad @ grad)

    theta, iterations = np.zeros(n + 1), 0
    obj, grad, pi, gnorm = evaluate(theta)
    while gnorm > tol and iterations < max_iter:
        step = np.linalg.solve(subtract_at_hessian(pi, hl, al, n, penalty), grad)
        scale = 1.0
        while True:
            cand = theta + scale * step
            cand[:n] -= cand[:n].sum() / n
            c_obj, c_grad, c_pi, c_gnorm = evaluate(cand)
            if c_obj > obj or c_gnorm < gnorm:
                theta, obj, grad, pi, gnorm = cand, c_obj, c_grad, c_pi, c_gnorm
                iterations += 1
                break
            scale *= 0.5
            if scale <= 1e-12:
                break
        if scale <= 1e-12:
            break
    coef[seen], coef[-1] = theta[:n], theta[n]
    return coef, iterations, gnorm


def _near_separable_rows(seed):
    """Four rows of games in which the lower-indexed team mostly wins, and
    a tiny penalty: with the seeds below, some rows need step halving."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 30))
    h = rng.integers(0, n, (4, m))
    a = (h + 1 + rng.integers(0, n - 1, (4, m))) % n
    p = 1 / (1 + np.exp(-(a - h) * rng.uniform(1, 6)))
    margin = np.where(rng.random((4, m)) < p, 1, -1) * rng.integers(1, 5, (4, m))
    margin[rng.random((4, m)) < 0.1] = 0
    return h, a, margin, n, float(10 ** rng.uniform(-9, -1))


def _season_rows(name):
    season = SEASONS[name]()
    config = ProtocolConfig(replicates=12, master_seed=23)
    fraction = 0.5 if name == "no_decisive_game" else 0.125
    return (*_train_rows(season, config, fraction), len(season.teams), config.bt_penalty)


def _tie_free_rows():
    """Twelve replicates' train sets from a season without a tied game, so
    that every row's games are all decisive."""
    spec = SynthSpec(n_teams=10, games_per_team=8, seed=3, home_adv=0.2,
                     strength_sd=0.6, mov_scale=7.0, mov_noise_sd=12.0)
    season = generate_season(spec)[0]
    assert (season.columns[2] != 0).all()
    config = ProtocolConfig(replicates=12, master_seed=23)
    return (*_train_rows(season, config, 0.5), len(season.teams), config.bt_penalty)


ROWS = [*(f"halving-{s}" for s in (142, 378, 586, 650, 1422, 1941, 2855)), *SEASONS,
        "tie_free"]


def _rows(name):
    return (_near_separable_rows(int(name.split("-")[1])) if name.startswith("halving")
            else _tie_free_rows() if name == "tie_free" else _season_rows(name))


@pytest.mark.parametrize("rows,tol", [
    *(pytest.param(name, ProtocolConfig.bt_tol, id=name) for name in ROWS),
    *(pytest.param(name, 0.0, id=f"{name}-tol0") for name in ROWS)])
def test_lockstep_fit_matches_plain_newton(rows, tol):
    h, a, margin, n_teams, penalty = _rows(rows)
    coef, iterations, gnorm = fit_bt_batch(h, a, margin, n_teams, penalty, tol)
    for k in range(len(margin)):
        want, want_iter, want_norm = plain_bt_fit(h[k], a[k], margin[k], n_teams, penalty, tol)
        assert coef[k].tobytes() == want.tobytes(), k
        assert iterations[k] == want_iter, k
        assert repr(float(gnorm[k])) == repr(float(want_norm)), k


@pytest.mark.parametrize("rows", ["ties", "unseen_teams", "halving-1941"])
def test_lockstep_newton_compacts_its_pair_keys_as_rows_leave(monkeypatch, rows):
    """Newton makes the Hessian's pair keys once per fit. Rows leave at
    different iterations, earlier rows before later ones, so the keys of
    the rows left move up: at every Hessian they are the live rows' own
    pair keys, and each row's fit is its one-row fit."""
    h, a, margin, n_teams, penalty = _rows(rows)
    live_rows, hessian = [], models._bt_hessian

    def checked(pi, h, a, pairs, n, penalty):
        block = (np.arange(len(h)) * (n + 1))[:, None]
        want = _pair_keys(h - block, a - block, n + 1)
        assert [(x.dtype, x.tobytes()) for x in pairs] == [(x.dtype, x.tobytes()) for x in want]
        live_rows.append(len(h))
        return hessian(pi, h, a, pairs, n, penalty)

    monkeypatch.setattr(models, "_bt_hessian", checked)
    coef, iterations, gnorm = fit_bt_batch(h, a, margin, n_teams, penalty)
    assert len(set(live_rows)) > 1
    assert any(iterations[i] < iterations[j] for i, j in itertools.combinations(range(len(h)), 2))
    monkeypatch.setattr(models, "_bt_hessian", hessian)
    for i in range(len(h)):
        want = fit_bt_batch(h[i:i + 1], a[i:i + 1], margin[i:i + 1], n_teams, penalty)
        assert coef[i].tobytes() == want[0][0].tobytes(), i
        assert iterations[i] == want[1][0] and gnorm[i:i + 1].tobytes() == want[2].tobytes(), i


def test_tol_0_stops_rows_at_the_halving_floor():
    """At tol 0 a row iterates until max_iter or the halving floor stops it,
    and some rows of ROWS stop at the floor, with a norm above 0 in fewer
    than max_iter iterations: the lockstep comparison at tol 0 covers that
    exit."""
    stopped = 0
    for name in ROWS:
        h, a, margin, n_teams, penalty = _rows(name)
        _, iterations, gnorm = fit_bt_batch(h, a, margin, n_teams, penalty, tol=0.0)
        stopped += ((gnorm > 0) & (iterations < ProtocolConfig.bt_max_iter)).sum()
    assert stopped


def test_a_row_accepts_a_step_below_1e_9():
    """At tol 0, rows of halving-142 accept a step scaled 2**-39, the last
    scale above the halving floor 1e-12: with the floor at 2**-39 or 1e-9,
    plain Newton ends elsewhere. So the lockstep comparison pins the floor."""
    h, a, margin, n_teams, penalty = _rows("halving-142")
    for floor in (2.0 ** -39, 1e-9):
        changed = 0
        for k in range(len(margin)):
            want, want_iter, _ = plain_bt_fit(h[k], a[k], margin[k], n_teams, penalty, 0.0)
            coef, iterations, _ = plain_bt_fit(h[k], a[k], margin[k], n_teams, penalty, 0.0,
                                               floor=floor)
            changed += coef.tobytes() != want.tobytes() or iterations != want_iter
        assert changed, floor


@pytest.mark.parametrize("rows", ROWS)
def test_full_size_fit_reaches_the_seen_team_optimum(rows):
    """Newton on every team, with no re-centering, converges to the optimum
    that Newton on the seen teams alone reaches under a sum-to-zero
    constraint: the ridge alone pins the unseen strengths and the sum."""
    h, a, margin, n_teams, penalty = _rows(rows)
    coef, _, gnorm = fit_bt_batch(h, a, margin, n_teams, penalty)
    compared = 0
    for k in range(len(margin)):
        want, _, want_norm = seen_team_bt_fit(h[k], a[k], margin[k], n_teams, penalty)
        if gnorm[k] <= 1e-8 and want_norm <= 1e-8:
            assert np.abs(coef[k] - want).max() <= 1e-8 * np.abs(want).max(), k
            compared += 1
    assert compared


def _count_objective_passes(monkeypatch):
    """Rows of each objective pass Newton makes from here on."""
    calls, objective = [], models._bt_objective

    def counted(theta, rows, *args):
        calls.append(len(rows))
        return objective(theta, rows, *args)

    monkeypatch.setattr(models, "_bt_objective", counted)
    return calls


def test_criterion_7_seasons_never_read_the_objective(monkeypatch):
    """Every Newton step in the 2,800 cells of criterion 7's four leagues
    shrinks the gradient norm, so no objective is computed."""
    calls = _count_objective_passes(monkeypatch)
    for kw in FOUR_LEAGUES.values():
        season = generate_season(SynthSpec(**kw))[0]
        n_games, n_teams = len(season.games), len(season.teams)
        columns = tuple(map(_narrow, season.columns))
        config = ProtocolConfig(replicates=100, master_seed=kw["seed"])
        for f, ks in _chunks(config, n_games, n_teams, jobs=1):
            _evaluate_units([(columns, n_teams)], config, [((0,), f, ks)])
    assert calls == []


def test_criterion_7_fits_keep_unseen_strengths_0_and_the_sum_0():
    """In the 2,800 BT fits of criterion 7's four leagues, a team that no
    decisive training game reaches keeps strength exactly +0.0, and the
    strengths sum to 0 up to rounding, with no re-centering."""
    unseen_teams = 0
    for kw in FOUR_LEAGUES.values():
        season = generate_season(SynthSpec(**kw))[0]
        n_teams = len(season.teams)
        config = ProtocolConfig(replicates=100, master_seed=kw["seed"])
        for f in config.x_grid:
            home, away, margin = _train_rows(season, config, f)
            coef, _, gnorm = fit_bt_batch(home, away, margin, n_teams)
            assert (gnorm <= config.bt_tol).all(), (kw, f)
            for h, a, m, c in zip(home, away, margin, coef):
                s, seen = c[:-1], np.zeros(n_teams, dtype=bool)
                seen[h[m != 0]] = seen[a[m != 0]] = True
                assert (s[~seen] == 0.0).all() and not np.signbit(s[~seen]).any()
                assert abs(s.sum()) <= 1e-12 * np.abs(s).max(), (kw, f)
                unseen_teams += (~seen).sum()
    assert unseen_teams


@pytest.mark.parametrize("seed", (378, 586, 650, 1422, 1941, 2855))
def test_step_halving_reads_the_objective(monkeypatch, seed):
    """A step that must be halved did not shrink the norm, so the objective
    decides it; the fits still match plain Newton bit for bit."""
    calls = _count_objective_passes(monkeypatch)
    test_lockstep_fit_matches_plain_newton(f"halving-{seed}", ProtocolConfig.bt_tol)
    assert calls
