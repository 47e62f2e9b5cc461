"""Relations between runs that must hold exactly (metamorphic testing;
Chen, Cheung & Yiu 1998, HKUST-CS98-01).

A curve is a pure function of (season, config): a split's seed hashes its
fraction, not the fraction's place on the grid, and a season's rows do not
depend on the other seasons of a ``curve`` call. It reads a score only
through the signs of margins and a fit linear in them, and a team only
through its place in the sorted team list. A summary is a pure function of
the set of curve rows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from seasoninfo import CurveRow, ProtocolConfig, Season, SynthSpec, generate_season, run_protocol
from seasoninfo.cli import curve_text, main
from seasoninfo.harness import DEFAULT_X_GRID
from seasoninfo.ingest import season_to_csv


@st.composite
def seasons(draw):
    """A small synthetic season, at least 6 games (every default fraction
    leaves a train and a test game)."""
    spec = SynthSpec(n_teams=draw(st.integers(3, 12)),
                     games_per_team=2 * draw(st.integers(2, 5)),
                     seed=draw(st.integers(0, 2**32)),
                     home_adv=draw(st.floats(-0.5, 1.0)),
                     strength_sd=draw(st.floats(0.0, 1.5)),
                     mov_scale=draw(st.floats(0.5, 8.0)),
                     mov_noise_sd=draw(st.floats(0.5, 14.0)))
    return generate_season(spec)[0]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seasons(), st.integers(0, 2**32))
def test_a_fraction_alone_matches_its_grid_row(season, master_seed):
    config = ProtocolConfig(replicates=6, master_seed=master_seed)
    grid = run_protocol(season, config)
    assert [pt.fraction for pt in grid] == list(DEFAULT_X_GRID)
    for pt in grid:
        (alone,) = run_protocol(season, ProtocolConfig(x_grid=(pt.fraction,), replicates=6,
                                                       master_seed=master_seed))
        assert repr(alone) == repr(pt)


def _curve(inputs, out: Path, seed: int) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return main(["curve", *map(str, inputs), "--league", "NBA", "--replicates", "4",
                     "--seed", str(seed), "--out", str(out)])


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.lists(seasons(), min_size=2, max_size=3), st.integers(0, 2**32))
def test_a_multi_season_call_concatenates_the_one_season_calls(drawn, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = []
        for i, season in enumerate(drawn):
            inputs.append(tmp / f"s{i}.csv")
            inputs[-1].write_text(season_to_csv(season), encoding="utf-8")
        codes = [_curve([path], tmp / f"one_{path.name}", seed) for path in inputs]
        code = _curve(inputs, tmp / "all.csv", seed)
        # Exit 4 (every replicate failed at a fraction) for any season fails the call.
        assert code == max(codes) and set(codes) <= {0, 4}
        if code == 0:
            lines = [(tmp / f"one_{p.name}").read_text().splitlines(keepends=True)
                     for p in inputs]
            header = lines[0][0]
            assert all(one[0] == header for one in lines)
            assert (tmp / "all.csv").read_text() == header + "".join(
                "".join(one[1:]) for one in lines)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seasons(), st.sampled_from([2, 4, 1024]), st.integers(0, 2**32))
def test_scaling_every_score_by_a_power_of_two_changes_no_point(season, c, master_seed):
    # BT and the baseline read only the signs of margins; the margin fit is
    # linear in them, and a power-of-two scale is exact in floating point.
    scaled = Season(season.league, season.season_label,
                    tuple((d, h, a, c * hs, c * vs) for d, h, a, hs, vs in season.rows))
    config = ProtocolConfig(replicates=5, master_seed=master_seed)
    assert repr(run_protocol(scaled, config)) == repr(run_protocol(season, config))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seasons(), st.data(), st.integers(0, 2**32))
def test_an_order_preserving_team_renaming_changes_no_point(season, data, master_seed):
    # Teams are numbered in sorted order, which a strictly increasing
    # renaming keeps: every column, so every point, is as it was.
    teams = sorted(season.teams)
    names = data.draw(st.lists(st.text(min_size=1, max_size=4), min_size=len(teams),
                               max_size=len(teams), unique=True))
    rename = dict(zip(teams, sorted(names)))
    renamed = Season(season.league, season.season_label,
                     tuple((d, rename[h], rename[a], hs, vs) for d, h, a, hs, vs in season.rows))
    config = ProtocolConfig(replicates=5, master_seed=master_seed)
    assert repr(run_protocol(renamed, config)) == repr(run_protocol(season, config))


def _summary(inputs, out: Path) -> tuple[int, list[bytes]]:
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["summary", *map(str, inputs), "--out", str(out)])
    names = ("summary.json", "table_or.csv", "table_slopes.csv")
    return code, [(out / name).read_bytes() for name in names if code == 0]


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.lists(st.tuples(seasons(), st.sampled_from(["NFL", "NBA"])), min_size=2, max_size=4),
       st.integers(0, 2**32))
def test_summary_reads_only_the_set_of_curve_rows(drawn, seed):
    config = ProtocolConfig(replicates=4, master_seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files, failed = {".csv": [], ".json": []}, False
        for i, (season, league) in enumerate(drawn):
            points = run_protocol(season, config)
            # A fraction where every BT fit failed has a NaN mean: a row
            # summary refuses (exit 3), whatever the input order.
            failed |= any(pt.bt_failures == config.replicates for pt in points)
            rows = [CurveRow(league, f"s{i}", **dataclasses.asdict(pt)) for pt in points]
            for suffix, paths in files.items():
                paths.append(tmp / f"s{i}{suffix}")
                paths[-1].write_text(curve_text(paths[-1], rows), encoding="utf-8")
        code, outputs = _summary(files[".csv"], tmp / "csv")
        assert code == (3 if failed else 0)
        assert _summary(files[".json"][::-1], tmp / "json") == (code, outputs)
