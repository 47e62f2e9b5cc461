"""Relations between runs that must hold exactly (metamorphic testing;
Chen, Cheung & Yiu 1998, HKUST-CS98-01).

A curve is a pure function of (season, config): a split's seed hashes its
fraction, not the fraction's place on the grid, and a season's rows do not
depend on the other seasons of a ``curve`` call.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from seasoninfo import ProtocolConfig, SynthSpec, generate_season, run_protocol
from seasoninfo.cli import main
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
