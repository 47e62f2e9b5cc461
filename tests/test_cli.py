from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os

import pytest

from seasoninfo import harness, ingest
from seasoninfo.analysis import CurveRow
from seasoninfo.cli import curve_text, fmt6, main, read_curve_file
from seasoninfo.harness import DEFAULT_X_GRID
from test_acceptance import FOUR_LEAGUES

CANONICAL = "date,home,away,home_score,away_score\n"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def toy_csv(tmp_path, name="toy.csv"):
    rows = []
    margins = [3, -2, 0, 7, -4, 1, 5, -1, 2, -3, 6, 0, -5, 4, 1, -2]
    teams = ["AA", "BB", "CC", "DD"]
    for i, m in enumerate(margins):
        home = teams[i % 4]
        away = teams[(i + 1) % 4]
        rows.append(f"2012-09-{i + 1:02d},{home},{away},{max(m, 0)},{max(-m, 0)}")
    path = tmp_path / name
    path.write_text(CANONICAL + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_curve_is_deterministic_and_byte_identical(tmp_path):
    src = toy_csv(tmp_path)
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    args = [str(src), "--league", "NFL", "--x-grid", "0.5", "--replicates", "2",
            "--seed", "9"]
    assert main(["curve", *args, "--out", str(out1)]) == 0
    assert main(["curve", *args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    with open(out1, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["league"] == "NFL"
    assert rows[0]["season"] == "toy"
    assert rows[0]["fraction"] == "0.5"
    assert rows[0]["games_per_team"] == "4"

    manifest = json.loads((tmp_path / "c1.csv.manifest.json").read_text())
    assert manifest["config"]["replicates"] == 2
    assert manifest["config"]["master_seed"] == 9
    assert len(manifest["inputs"][0]["sha256"]) == 64
    assert manifest["outputs"] == [{"path": str(out1), "sha256": sha256(out1)}]


def test_curve_manifest_says_how_the_call_ran(tmp_path, monkeypatch):
    """The manifest records the requested --jobs, the workers used and the
    unit count, so a --jobs 2 call that ran in one process shows as one."""
    src = toy_csv(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["curve", str(src), "--league", "NFL", "--x-grid", "0.5", "--replicates", "12",
            "--jobs", "2"]

    def schedule(name):
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        return json.loads((tmp_path / f"{name}.manifest.json").read_text())["schedule"]

    assert schedule("small.csv") == {"jobs": 2, "workers": 1, "units": 1}
    # units of 3 replicates' bytes (16 games, 4 teams): 12 replicates are 4 units of work
    monkeypatch.setattr(harness, "UNIT_BYTES",
                        3 * (harness.GAME_BYTES * 16 + harness.TEAM_BYTES * 5 ** 2))
    assert schedule("large.csv") == {"jobs": 2, "workers": 2, "units": 4}


def test_curve_with_a_season_of_only_ties_exits_4_and_writes_nothing(tmp_path, capsys,
                                                                    monkeypatch):
    """The fit check covers every season of the call before anything is
    written, also when a helper evaluated part of it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(harness, "UNIT_BYTES", 1)  # each replicate is a unit worth a worker
    first = toy_csv(tmp_path)
    ties = tmp_path / "ties.csv"
    ties.write_text(CANONICAL + "".join(f"2012-09-{i:02d},AA,BB,1,1\n" for i in range(1, 9)),
                    encoding="utf-8")
    code = main(["curve", str(first), str(ties), "--league", "NHL", "--x-grid", "0.5",
                 "--replicates", "4", "--jobs", "2", "--out", str(tmp_path / "c.csv")])
    assert code == 4
    assert "every replicate failed for ties" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([first, ties])


def test_curve_json_output_matches_csv_numbers(tmp_path):
    src = toy_csv(tmp_path)
    csv_out = tmp_path / "c.csv"
    json_out = tmp_path / "c.json"
    args = [str(src), "--league", "NFL", "--x-grid", "0.5", "--replicates", "2",
            "--seed", "9"]
    assert main(["curve", *args, "--out", str(csv_out)]) == 0
    assert main(["curve", *args, "--out", str(json_out)]) == 0
    payload = json.loads(json_out.read_text())
    with open(csv_out, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert payload["curves"][0]["mean_bt_acc"] == float(row["mean_bt_acc"])
    assert payload["curves"][0]["baseline_acc"] == float(row["baseline_acc"])


def test_curve_missing_input_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["curve", str(tmp_path / "nope.csv"), "--league", "NBA",
                 "--out", str(out)])
    assert code == 3
    assert not out.exists()
    assert "nope.csv" in capsys.readouterr().err


def test_curve_rejects_bad_x_grid(tmp_path, capsys):
    src = toy_csv(tmp_path)
    code = main(["curve", str(src), "--league", "NFL", "--x-grid", "0.5,huh",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 2
    code = main(["curve", str(src), "--league", "NFL", "--x-grid", "1.5",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 2


def test_curve_parse_error_is_data_exit(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(CANONICAL + "2012-01-01,A,A,3,2\n", encoding="utf-8")
    code = main(["curve", str(bad), "--league", "NFL", "--out", str(tmp_path / "c.csv")])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_oversized_score_is_a_data_error(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text(CANONICAL + "2012-01-01,A,B,99999999999999999999999,1\n"
                   "2012-01-02,B,A,3,1\n", encoding="utf-8")
    for argv in (["curve", str(big), "--league", "NFL", "--x-grid", "0.5",
                  "--out", str(tmp_path / "c.csv")], ["validate", str(big)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


def test_a_field_past_the_csv_size_limit_is_a_data_error(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text(CANONICAL + "2012-01-01,A,B,3,1\n2012-01-02," + "T" * 200_000 + ",A,3,1\n",
                   encoding="utf-8")
    for argv in (["curve", str(big), "--league", "NFL", "--x-grid", "0.5",
                  "--out", str(tmp_path / "c.csv")], ["validate", str(big)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "line 3" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


def test_curve_rows_round_trip_through_csv_and_json(tmp_path):
    rows = [CurveRow("NFL", "2012", 0.125, 2.0, 0.612345, 0.0123456, 1.0, 0.0, 0.57, 3, 1),
            CurveRow("NBA", "x,y", 0.875, 1 / 3, 0.5, 0.25, 0.0, 2 / 3, 1.0, 0, 99)]
    written = [dataclasses.replace(r, **{f: float(fmt6(getattr(r, f)))
                                         for f in ("games_per_team", "sd_mov_acc")})
               for r in rows]  # six significant digits
    for suffix in (".csv", ".json"):
        path = tmp_path / f"curve{suffix}"
        path.write_text(curve_text(path, rows), encoding="utf-8")
        back = read_curve_file(path)
        assert back == written
        for row in back:
            assert [type(getattr(row, f.name)).__name__ for f in dataclasses.fields(row)] \
                == [f.type for f in dataclasses.fields(row)]


def test_curve_text_renders_failures_zero_sds_and_non_finite_means():
    """Cells the pinned digests never hold: failure counts, one with more
    digits than fmt6 keeps for a float; an sd of exactly 0; and NaN and
    infinite means, which CSV writes as text and JSON as null."""
    nan, inf = float("nan"), float("inf")
    rows = [CurveRow("NFL", "2012", 0.5, 8.0, 0.625, 0.0, 0.6, 0.0, 0.5625, bt_failures=3),
            CurveRow("NHL", "s,1", 0.125, 10.25, nan, nan, 0.55, 0.0123456789, 0.5,
                     bt_failures=1000000),
            CurveRow("MLB", "x", 0.875, 141.75, 0.6, 1e-7, inf, 0.0, 0.5, mov_failures=2)]
    assert curve_text("c.csv", rows) == (
        "league,season,fraction,games_per_team,mean_bt_acc,sd_bt_acc,mean_mov_acc,"
        "sd_mov_acc,baseline_acc,bt_failures,mov_failures\n"
        "NFL,2012,0.5,8,0.625,0,0.6,0,0.5625,3,0\n"
        'NHL,"s,1",0.125,10.25,nan,nan,0.55,0.0123457,0.5,1000000,0\n'
        "MLB,x,0.875,141.75,0.6,1e-07,inf,0,0.5,0,2\n")
    assert curve_text("c.json", rows) == """\
{
  "curves": [
    {
      "baseline_acc": 0.5625,
      "bt_failures": 3,
      "fraction": 0.5,
      "games_per_team": 8.0,
      "league": "NFL",
      "mean_bt_acc": 0.625,
      "mean_mov_acc": 0.6,
      "mov_failures": 0,
      "sd_bt_acc": 0.0,
      "sd_mov_acc": 0.0,
      "season": "2012"
    },
    {
      "baseline_acc": 0.5,
      "bt_failures": 1000000,
      "fraction": 0.125,
      "games_per_team": 10.25,
      "league": "NHL",
      "mean_bt_acc": null,
      "mean_mov_acc": 0.55,
      "mov_failures": 0,
      "sd_bt_acc": null,
      "sd_mov_acc": 0.0123457,
      "season": "s,1"
    },
    {
      "baseline_acc": 0.5,
      "bt_failures": 0,
      "fraction": 0.875,
      "games_per_team": 141.75,
      "league": "MLB",
      "mean_bt_acc": 0.6,
      "mean_mov_acc": null,
      "mov_failures": 2,
      "sd_bt_acc": 1e-07,
      "sd_mov_acc": 0.0,
      "season": "x"
    }
  ]
}
"""


def test_synth_round_trips_and_is_deterministic(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["synth", "--teams", "4", "--games-per-team", "6", "--seed", "7"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    truth1 = tmp_path / "s1.truth.json"
    assert json.loads(truth1.read_text())["n_teams"] == 4
    assert len(out1.read_text().splitlines()) == 1 + 12  # header + 4*6/2 games
    assert main(["validate", str(out1)]) == 0


def test_synth_rejects_odd_slot_count(tmp_path, capsys):
    code = main(["synth", "--teams", "3", "--games-per-team", "3", "--seed", "1",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "odd" in capsys.readouterr().err


def test_synth_explicit_strengths_file(tmp_path):
    strengths = tmp_path / "str.json"
    strengths.write_text(json.dumps({"E1": 1.0, "E2": -1.0}), encoding="utf-8")
    out = tmp_path / "s.csv"
    assert main(["synth", "--teams", "2", "--games-per-team", "4", "--seed", "3",
                 "--strengths", str(strengths), "--out", str(out)]) == 0
    truth = json.loads((tmp_path / "s.truth.json").read_text())
    assert truth["strengths"] == {"E1": 1.0, "E2": -1.0}


def test_validate_reports_and_fails_cleanly(tmp_path, capsys):
    src = toy_csv(tmp_path)
    assert main(["validate", str(src)]) == 0
    assert "16 games, 4 teams" in capsys.readouterr().out

    bad = tmp_path / "bad.csv"
    bad.write_text(CANONICAL + "2012-01-01,A,B,x,2\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 3
    assert "line 2" in capsys.readouterr().err


def summary_curve_file(tmp_path, league="NBA", name="curve_nba.csv"):
    fractions = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]
    lines = ["league,season,fraction,games_per_team,mean_bt_acc,sd_bt_acc,"
             "mean_mov_acc,sd_mov_acc,baseline_acc,bt_failures,mov_failures"]
    for f in fractions:
        acc = 0.70 if f == 0.875 else 0.60 + 0.1 * f
        lines.append(
            f"{league},2012,{f},{f * 82},{acc},0.01,{acc},0.01,0.6,0,0"
        )
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_summary_emits_or_slopes_and_breakpoint(tmp_path):
    curve = summary_curve_file(tmp_path)
    out = tmp_path / "report"
    assert main(["summary", str(curve), "--out", str(out)]) == 0

    payload = json.loads((out / "summary.json").read_text())
    nba = payload["leagues"]["NBA"]
    assert nba["or_mov_875"] == pytest.approx(1.5556, abs=1e-3)
    assert nba["per_season_or"]["2012"] == pytest.approx(1.5556, abs=1e-3)
    assert payload["informativeness_ratios"] == {}  # single league

    with open(out / "table_or.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["league"] == "NBA"
    assert float(rows[0]["or_mov_875"]) == pytest.approx(1.5556, abs=1e-3)

    with open(out / "table_slopes.csv", newline="") as fh:
        slope_rows = list(csv.DictReader(fh))
    assert slope_rows[0]["league"] == "NBA"
    assert float(slope_rows[0]["slope_0.25"]) > 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"][0] == {"path": str(out / "summary.json"),
                                      "sha256": sha256(out / "summary.json")}
    assert len(manifest["inputs"][0]["sha256"]) == 64


def test_summary_outputs_are_byte_identical(tmp_path):
    curve = summary_curve_file(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["summary", str(curve), "--out", str(out1)]) == 0
    assert main(["summary", str(curve), "--out", str(out2)]) == 0
    for name in ("summary.json", "table_or.csv", "table_slopes.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_summary_two_leagues_emits_ratios(tmp_path):
    nba = summary_curve_file(tmp_path, "NBA", "nba.csv")
    nfl = summary_curve_file(tmp_path, "NFL", "nfl.csv")
    out = tmp_path / "report"
    assert main(["summary", str(nba), str(nfl), "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert set(payload["informativeness_ratios"]) == {"NBA/NFL", "NFL/NBA"}
    assert "NFL/NBA" in payload["leagues"]["NFL"]["informativeness_ratios"]


def test_summary_does_not_depend_on_the_order_of_its_inputs(tmp_path):
    # The four 0.5 rows average to 0.6169605, which prints as 0.61696 or
    # 0.616961 depending on the order the mean sums them in.
    paths = []
    for i, mov in enumerate((0.585222, 0.699213, 0.566543, 0.616864), start=1):
        paths.append(tmp_path / f"s{i}.csv")
        paths[-1].write_text(curve_text(paths[-1], [
            CurveRow("NFL", f"s{i}", f, 16 * f, 0.6, 0.01, mov if f == 0.5 else 0.5 + f / 4,
                     0.01, 0.57) for f in DEFAULT_X_GRID]), encoding="utf-8")
    for name, inputs in (("a", paths), ("b", paths[2:] + paths[:2])):
        assert main(["summary", *map(str, inputs), "--out", str(tmp_path / name)]) == 0
    for name in ("summary.json", "table_or.csv", "table_slopes.csv"):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_summary_rejects_malformed_curve_file(tmp_path, capsys):
    bad = tmp_path / "bad_curve.csv"
    bad.write_text("league,season\nNBA,2012\n", encoding="utf-8")
    code = main(["summary", str(bad), "--out", str(tmp_path / "report")])
    assert code == 3
    assert "bad_curve.csv" in capsys.readouterr().err


# JSON nested past the parser's recursion limit, as arrays and as objects.
DEEP_JSON = {"arrays": b"[" * 100_000 + b"]" * 100_000,
             "objects": b'{"a": ' * 100_000 + b"0" + b"}" * 100_000}


@pytest.mark.parametrize("body", DEEP_JSON.values(), ids=list(DEEP_JSON))
def test_summary_refuses_a_json_curve_file_nested_too_deeply(tmp_path, capsys, body):
    deep = tmp_path / "deep.json"
    deep.write_bytes(body)
    assert main(["summary", str(deep), "--out", str(tmp_path / "report")]) == 3
    err = capsys.readouterr().err
    assert "malformed curve file" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [deep]


@pytest.mark.parametrize("column,value", [
    ("fraction", "nan"), ("fraction", "0"), ("fraction", "1"), ("games_per_team", "0"),
    ("games_per_team", "inf"), ("games_per_team", "1e-300"), ("games_per_team", "1e300"),
    ("mean_bt_acc", "nan"), ("mean_mov_acc", "1.5"), ("baseline_acc", "-0.1"),
    ("sd_bt_acc", "inf"), ("sd_mov_acc", "-0.01"), ("bt_failures", "-1"),
    ("mov_failures", "-2"), ("league", "N/A"), ("league", "")])
def test_summary_rejects_out_of_range_rows_and_writes_nothing(tmp_path, capsys, column, value):
    curve = summary_curve_file(tmp_path)
    with open(curve, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[2][column] = value
    with open(curve, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "report"
    assert main(["summary", str(curve), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"row 3: {column}" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [curve.name]


@pytest.mark.parametrize("column,value", [("bt_failures", 2.5), ("mov_failures", True),
                                          ("league", 5), ("season", None), ("fraction", None),
                                          ("mean_mov_acc", True), ("games_per_team", "14"),
                                          ("league", "\udcff"), ("season", "2012\udcff")])
def test_summary_rejects_json_values_of_the_wrong_type(tmp_path, capsys, column, value):
    row = dict(league="NFL", season="2012", fraction=0.875, games_per_team=14.0,
               mean_bt_acc=0.6, sd_bt_acc=0.01, mean_mov_acc=0.6, sd_mov_acc=0.01,
               baseline_acc=0.55, bt_failures=0, mov_failures=0)
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"curves": [{**row, column: value}]}), encoding="utf-8")
    assert main(["summary", str(curve), "--out", str(tmp_path / "report")]) == 3
    assert "malformed curve file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [curve.name]


@pytest.mark.parametrize("suffix,edit,named", [
    (".csv", lambda text: text[:-1] + ",7\n", "['7']"),  # the last row outruns the header
    (".csv", lambda text: text.replace("\n", ",extra\n"), "'extra'"),  # a column and its values
    (".json", lambda text: text.replace('"league"', '"note": 1, "league"'), "'note'"),
    (".json", lambda text: text.replace('"curves"', '"meta": {}, "curves"'), "'meta'")],
    ids=["row_outruns_header", "extra_column", "unknown_json_row_key", "unknown_json_key"])
def test_summary_rejects_fields_that_curve_never_writes(tmp_path, capsys, suffix, edit, named):
    curve = tmp_path / f"curve{suffix}"
    text = curve_text(curve, [CurveRow("NBA", "2012", f, 82 * f, 0.6, 0.01, 0.6, 0.01, 0.55)
                              for f in DEFAULT_X_GRID])
    curve.write_text(edit(text), encoding="utf-8")
    assert main(["summary", str(curve), "--out", str(tmp_path / "report")]) == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [curve.name]


def test_summary_refuses_a_csv_row_shorter_than_its_header(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    text = curve_text(curve, [CurveRow("NBA", "2012", f, 82 * f, 0.6, 0.01, 0.6, 0.01, 0.55)
                              for f in DEFAULT_X_GRID])
    curve.write_text(text[:text.rindex(",")] + "\n", encoding="utf-8")  # the last row loses a field
    assert main(["summary", str(curve), "--out", str(tmp_path / "report")]) == 3
    err = capsys.readouterr().err
    assert "fewer fields than the header" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [curve.name]


def test_summary_rejects_duplicate_rows_and_writes_nothing(tmp_path, capsys):
    curve = summary_curve_file(tmp_path)
    out = tmp_path / "report"
    code = main(["summary", str(curve), str(curve), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "duplicate curve row" in err and "Traceback" not in err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [curve.name]


@pytest.mark.parametrize("flag,value", [("--bt-penalty", "0"), ("--bt-penalty", "-1"),
                                        ("--bt-penalty", "nan"), ("--mov-penalty", "-1"),
                                        ("--mov-penalty", "nan")])
def test_curve_rejects_bad_penalty(tmp_path, capsys, flag, value):
    src = toy_csv(tmp_path)
    out = tmp_path / "c.csv"
    code = main(["curve", str(src), "--league", "NFL", "--x-grid", "0.5", "--replicates", "2",
                 flag, value, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert flag.lstrip("-").replace("-", "_") in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [src.name]


def test_curve_rejects_duplicate_fractions_and_seasons(tmp_path, capsys):
    src = toy_csv(tmp_path)
    (tmp_path / "b").mkdir()
    twin = toy_csv(tmp_path / "b")  # another toy.csv: the same season label
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    for inputs, extra in (([src], ["--x-grid", "0.5,0.5"]), ([src, twin], ["--x-grid", "0.5"])):
        out = tmp_path / "c.csv"
        code = main(["curve", *map(str, inputs), "--league", "NFL", "--replicates", "2",
                     *extra, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and ("repeats" in err or "share" in err)
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


def test_curve_rejects_fractions_that_print_alike(tmp_path, capsys):
    # Both would be written as fraction 0.5, and summary would refuse the file.
    src = toy_csv(tmp_path)
    code = main(["curve", str(src), "--league", "NFL", "--replicates", "2", "--x-grid",
                 "0.5,0.5000001,0.25,0.75,0.875", "--out", str(tmp_path / "c.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "0.5000001" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [src.name]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_curve_rejects_jobs_below_one(tmp_path, capsys, jobs):
    src = toy_csv(tmp_path)
    code = main(["curve", str(src), "--league", "NFL", "--x-grid", "0.5", "--replicates", "2",
                 "--jobs", jobs, "--out", str(tmp_path / "c.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "jobs" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [src.name]


def test_curve_at_a_tiny_bt_penalty_exits_0_or_4(tmp_path, capsys):
    # A penalty lost to rounding against the BT Hessian, below the floor
    # eps * (m + 1): Newton takes least-norm steps, and every replicate
    # with a decisive game converges, so no row counts a BT failure.
    src = tmp_path / "s.csv"
    assert main(["synth", "--teams", "4", "--games-per-team", "6", "--seed", "5",
                 "--strength-sd", "8", "--out", str(src)]) == 0
    code = main(["curve", str(src), "--league", "NFL", "--bt-penalty", "1e-300",
                 "--replicates", "20", "--out", str(tmp_path / "c.csv")])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = read_curve_file(tmp_path / "c.csv")
    assert len(rows) == len(DEFAULT_X_GRID) and all(r.bt_failures == 0 for r in rows)


def test_curve_checks_jobs_before_reading_any_input(tmp_path, capsys):
    # A missing and a malformed input would each exit 3 once read.
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,season\n")
    for src in (tmp_path / "nope.csv", bad):
        code = main(["curve", str(src), "--league", "NFL", "--jobs", "0",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "jobs" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["curve"])  # missing required arguments
    assert err.value.code == 2


def test_summary_saturated_accuracy_writes_null_with_reason(tmp_path):
    # A perfect 0.875 row: the odds of a correct call are infinite.
    curve = tmp_path / "nfl.csv"
    curve.write_text(
        "league,season,fraction,games_per_team,mean_bt_acc,sd_bt_acc,"
        "mean_mov_acc,sd_mov_acc,baseline_acc,bt_failures,mov_failures\n"
        "NFL,2012,0.875,14,0.9,0.01,1.0,0,0.6,0,0\n", encoding="utf-8")
    out = tmp_path / "report"
    assert main(["summary", str(curve), "--out", str(out)]) == 0

    nfl = json.loads((out / "summary.json").read_text())["leagues"]["NFL"]
    assert nfl["or_mov_875"] is None
    assert nfl["per_season_or"] == {"2012": None}
    assert set(nfl["or_undefined"]) == {"or_mov_875", "per_season_or.2012"}
    assert "strictly between 0 and 1" in nfl["or_undefined"]["or_mov_875"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert {o["path"]: o["sha256"] for o in manifest["outputs"]} == {
        str(out / name): sha256(out / name)
        for name in ("summary.json", "table_or.csv", "table_slopes.csv")}
    assert (out / "table_or.csv").read_text() == "league,or_mov_875\nNFL,\n"


def test_summary_without_a_headline_row_leaves_the_cell_empty(tmp_path):
    season, curve, out = tmp_path / "s.csv", tmp_path / "c.csv", tmp_path / "report"
    assert main(["synth", "--teams", "8", "--games-per-team", "10", "--seed", "3",
                 "--out", str(season)]) == 0
    assert main(["curve", str(season), "--league", "NFL", "--x-grid", "0.25,0.5,0.625,0.75",
                 "--replicates", "5", "--out", str(curve)]) == 0
    assert main(["summary", str(curve), "--out", str(out)]) == 0

    nfl = json.loads((out / "summary.json").read_text())["leagues"]["NFL"]
    assert nfl["or_mov_875"] is None
    assert nfl["per_season_or"] == {"s": None}
    assert nfl["or_undefined"] == {"or_mov_875": "undefined: no curve row at fraction 0.875",
                                   "per_season_or.s": "undefined: no curve row at fraction 0.875"}
    assert (out / "table_or.csv").read_text() == "league,or_mov_875\nNFL,\n"


def test_cli_never_builds_a_game(tmp_path, monkeypatch):
    def refuse(game):
        raise AssertionError(f"built {game.game_id}")

    monkeypatch.setattr(ingest.Game, "__post_init__", refuse)
    season, curve = tmp_path / "s.csv", tmp_path / "c.csv"
    assert main(["synth", "--teams", "8", "--games-per-team", "10", "--seed", "3",
                 "--out", str(season)]) == 0
    assert main(["validate", str(season)]) == 0
    assert main(["curve", str(season), "--league", "NFL", "--replicates", "3",
                 "--out", str(curve)]) == 0
    assert main(["summary", str(curve), "--out", str(tmp_path / "report")]) == 0


# Each file's body and what the refusal names: the team or the strengths.
BAD_STRENGTHS = {'{"A": "x", "B": 1.0}': "strength of team 'A'",
                 '["A", "B"]': "strengths must map team ids",
                 '{"A": [1], "B": 0}': "strength of team 'A'",
                 '{"A": NaN, "B": 0}': "strength of team 'A'",
                 '{"A": "1.5", "B": true}': "strength of team 'A'",
                 '{"A": 1.5, "B": true}': "strength of team 'B'"}


@pytest.mark.parametrize("body,message", BAD_STRENGTHS.items(), ids=list(BAD_STRENGTHS))
def test_synth_rejects_bad_strengths_file(tmp_path, capsys, body, message):
    strengths = tmp_path / "str.json"
    strengths.write_text(body, encoding="utf-8")
    out = tmp_path / "s.csv"
    code = main(["synth", "--teams", "2", "--games-per-team", "4", "--seed", "3",
                 "--strengths", str(strengths), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [strengths]


def test_synth_refuses_strengths_with_a_strength_sd(tmp_path, capsys):
    strengths = tmp_path / "str.json"
    strengths.write_text('{"A": 0.5, "B": 0}', encoding="utf-8")
    assert main(["synth", "--teams", "2", "--games-per-team", "4", "--seed", "3",
                 "--strengths", str(strengths), "--strength-sd", "1",
                 "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert "strength" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [strengths]


@pytest.mark.parametrize("body", ['{"": 0.1, "B": 0.2, "C": 0, "D": -0.3}',
                                  '{" A": 0.1, "A": 0.2, "C": 0, "D": -0.3}',
                                  '{"A": 0.1, "B\\n": 0.2, "C": 0, "D": -0.3}',
                                  '{"A": 0.1, "B\\rB": 0.2, "C": 0, "D": -0.3}'])
def test_synth_rejects_team_ids_the_parser_would_change(tmp_path, capsys, body):
    # An empty id fails to parse, a padded one is stripped (" A" becomes
    # "A"), and a bare carriage return splits the row.
    strengths = tmp_path / "str.json"
    strengths.write_text(body, encoding="utf-8")
    code = main(["synth", "--teams", "4", "--games-per-team", "6", "--seed", "1",
                 "--strengths", str(strengths), "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "team id" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [strengths]


def test_commit_failure_leaves_no_partial_or_temp_file(tmp_path, monkeypatch):
    from seasoninfo import cli

    fresh = tmp_path / "fresh.csv"
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n", encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError(f"opened {args}")

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    for files in ({fresh: "a,b\n" * 1000 + "\ud800\n"}, {kept: "a,b\n" * 1000 + "\ud800\n"},
                  {kept: "new\n", fresh: "a,b\n\ud800"}):
        with pytest.raises(UnicodeEncodeError):  # a lone surrogate fails before any file opens
            cli._commit(files, tmp_path / "manifest.json")
    monkeypatch.undo()
    assert not fresh.exists()
    assert kept.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
    cli._commit({fresh: "a,b\n"})
    assert fresh.read_text(encoding="utf-8") == "a,b\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "kept.csv"]


def assert_each_blocked_output_keeps_the_set(tmp_path, run, outputs, blocked):
    """``run(seed)`` writes ``outputs`` at seed 1. Then each of ``blocked`` in
    turn is replaced by a directory and ``run(2)`` must exit 3, leave every
    other output with its seed-1 bytes and leave no temp file. Unblocked,
    ``run(2)`` changes every output, so the kept bytes are a real check."""
    assert run(1) == 0
    before = {p: p.read_bytes() for p in outputs}
    for target in blocked:
        target.unlink()
        target.mkdir()
        assert run(2) == 3
        assert {p: p.read_bytes() for p in outputs if p != target} == \
            {p: b for p, b in before.items() if p != target}
        assert target.is_dir() and not list(target.iterdir())
        assert not list(tmp_path.rglob("*.tmp"))
        target.rmdir()
        target.write_bytes(before[target])
    assert run(2) == 0
    assert all(p.read_bytes() != before[p] for p in outputs)


def test_curve_with_a_blocked_manifest_leaves_the_output_set_as_it_was(tmp_path, capsys):
    season, out = tmp_path / "s.csv", tmp_path / "c.csv"
    assert main(["synth", "--teams", "8", "--games-per-team", "10", "--seed", "3",
                 "--out", str(season)]) == 0
    manifest = tmp_path / "c.csv.manifest.json"
    assert_each_blocked_output_keeps_the_set(tmp_path, lambda seed: main([
        "curve", str(season), "--league", "NFL", "--replicates", "5", "--seed", str(seed),
        "--out", str(out)]), [out, manifest], [manifest])
    assert "Is a directory" in capsys.readouterr().err


def test_summary_with_a_blocked_output_leaves_the_output_set_as_it_was(tmp_path, capsys):
    season, curve, out = tmp_path / "s.csv", tmp_path / "c.csv", tmp_path / "report"
    assert main(["synth", "--teams", "10", "--games-per-team", "20", "--seed", "3",
                 "--out", str(season)]) == 0

    def run(seed):
        assert main(["curve", str(season), "--league", "NFL", "--replicates", "5",
                     "--seed", str(seed), "--out", str(curve)]) == 0
        return main(["summary", str(curve), "--out", str(out)])

    outputs = [out / n for n in ("summary.json", "table_or.csv", "table_slopes.csv",
                                 "manifest.json")]
    assert_each_blocked_output_keeps_the_set(tmp_path, run, outputs, outputs[1:])
    assert "Is a directory" in capsys.readouterr().err


def test_synth_with_a_blocked_truth_file_leaves_the_output_set_as_it_was(tmp_path, capsys):
    out, truth = tmp_path / "t.csv", tmp_path / "t.truth.json"
    assert_each_blocked_output_keeps_the_set(tmp_path, lambda seed: main([
        "synth", "--teams", "4", "--games-per-team", "6", "--seed", str(seed),
        "--out", str(out)]), [out, truth], [truth])
    assert "Is a directory" in capsys.readouterr().err


def test_curve_manifest_hashes_the_input_it_parsed_when_out_is_the_input(tmp_path):
    season = tmp_path / "same.csv"
    assert main(["synth", "--teams", "8", "--games-per-team", "10", "--seed", "3",
                 "--out", str(season)]) == 0
    parsed = sha256(season)
    assert main(["curve", str(season), "--league", "NFL", "--replicates", "5",
                 "--out", str(season)]) == 0
    manifest = json.loads((tmp_path / "same.csv.manifest.json").read_text())
    assert manifest["inputs"] == [{"path": str(season), "season": "same", "sha256": parsed}]
    assert manifest["outputs"] == [{"path": str(season), "sha256": sha256(season)}]
    assert sha256(season) != parsed


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_curve_rejects_a_season_label_that_is_not_utf8(tmp_path, capsys, suffix):
    # The file stem is the season label, and no UTF-8 output can hold it.
    src = toy_csv(tmp_path, name=os.fsdecode(b"x\xff.csv"))
    code = main(["curve", str(src), "--league", "NFL", "--x-grid", "0.5", "--replicates", "2",
                 "--out", str(tmp_path / f"c{suffix}")])
    assert code == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("body,code,message", [
    (b'{"A": 1' + b"0" * 400 + b', "B": 0}', 2, "strength of team 'A'"),
    (b'{"A": 1, "\xff": 0}', 3, "--strengths file is not UTF-8"),
    (b'{"A": 1' + b"0" * 5000 + b', "B": 0}', 2, "strength of team 'A'"),
    (b'{"\\ud800": 0.5, "B": 0}', 2, "team id '\\ud800'"),
    (b'{"B\\udfffB": 0.5, "B": 0}', 2, "team id 'B\\udfffB'"),
    (DEEP_JSON["arrays"], 3, "--strengths file nests JSON too deeply"),
    (DEEP_JSON["objects"], 3, "--strengths file nests JSON too deeply")],
    ids=["integer_too_large_for_a_float", "not_utf8", "integer_past_the_int_digit_limit",
         "lone_surrogate", "lone_surrogate_inside", "nested_arrays", "nested_objects"])
def test_synth_refuses_a_strengths_file_it_cannot_read(tmp_path, capsys, body, code, message):
    strengths = tmp_path / "str.json"
    strengths.write_bytes(body)
    assert main(["synth", "--teams", "2", "--games-per-team", "4", "--seed", "3",
                 "--strengths", str(strengths), "--out", str(tmp_path / "s.csv")]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [strengths]


# sha256 of each primary output of synth, curve (CSV and JSON) and summary
# on criterion 7's four leagues, at the default grid and 100 replicates. A
# change that means to move these bytes updates them, and CHANGES.md states
# what moved, the largest deviation and why.
PRIMARY_OUTPUTS = {
    "MLB.csv": "449618378cc75962f044fb585801e0f5516b9a2f3e775a897e3b999e14542b0e",
    "MLB.truth.json": "283cd8d8c3072ef6e3644c6f1223941cea7e84f27dc9bdb33e2e1013dc3c047b",
    "MLB_curve.csv": "a4ba9da311fdaef56892daf07c42e932e60107d348d7ef95a1667f25888de015",
    "MLB_curve.json": "fd8274047f910e60d97c966187f5abe7d78f34d6ffc83d45913254752e0b3f2c",
    "NBA.csv": "a1ce72db54fc6529181c222dea02a30eba321063ab1eb108677bdccbf0b22049",
    "NBA.truth.json": "20a6de0e43f0bd6495bc1a84f24120eea4e1d675d4281df568c29e673aca9088",
    "NBA_curve.csv": "39c0cfa682acf415846c589d9a66a0a372b5862f60bae89f97764fabecaa28de",
    "NBA_curve.json": "5b41eb1f630db481eded90f7fa6f9e6269640834f61dac5aeacdb4e63199499f",
    "NFL.csv": "6983380423ed1c4afbfe9ef81b336025d2dcf52d84a809148d653a32bde13acb",
    "NFL.truth.json": "f5a7c963213a193811a0d28acfb34267e65e7eee801324e2b343696a652afd6b",
    "NFL_curve.csv": "6d5b7a74355b5490395ddbe0defe7ede703d0485aa28b1ecb3032f8021d1d19d",
    "NFL_curve.json": "875d731fb504fe8d8488c06e8c7a51c3f4d1bfd5717df55316011f71a2c690ca",
    "NHL.csv": "cf051e8bc415c451f4a8b8d30a4907f78d69f62b8489688128c23ef1ac2a8e96",
    "NHL.truth.json": "f5b7e7e5faa18deb773ea29208db9283ceab085dd7a1ac1583635737411ca60a",
    "NHL_curve.csv": "a68b9bc3f718c61090f5a1e3a3c2eb43ab4bf64fd5053523ba1fc8c6db567c6f",
    "NHL_curve.json": "760c0114a30d052c23c2122205c7890abb6f1117e9ea639c514fc85de5bbba6d",
    "report/summary.json": "48675e891f475c3db7fb61ab4ad686909cba8ae52415dd8c9f33deea8a4e753d",
    "report/table_or.csv": "983e96b0d3db4fcb4c0533651f834fb71dc8adc9c044e3495602b263bdc4f909",
    "report/table_slopes.csv": "27d677ea130b3bef049f751b38e7039de24fdfcc7269c9bdc29bc1e9fff98914",
}


def test_primary_output_bytes_are_pinned(tmp_path):
    synth_flags = {"n_teams": "--teams", "games_per_team": "--games-per-team", "seed": "--seed",
                   "strength_sd": "--strength-sd", "home_adv": "--home-adv",
                   "mov_scale": "--mov-scale", "mov_noise_sd": "--mov-noise-sd"}
    for league, kw in FOUR_LEAGUES.items():
        season = tmp_path / f"{league}.csv"
        flags = [str(x) for name, value in kw.items() for x in (synth_flags[name], value)]
        assert main(["synth", *flags, "--out", str(season)]) == 0
        curve = ["curve", str(season), "--league", league, "--replicates", "100",
                 "--seed", str(kw["seed"])]
        for out, jobs in (("curve.csv", "1"), ("curve_jobs2.csv", "2"), ("curve.json", "2")):
            assert main([*curve, "--jobs", jobs, "--out", str(tmp_path / f"{league}_{out}")]) == 0
        jobs2 = tmp_path / f"{league}_curve_jobs2.csv"
        assert jobs2.read_bytes() == (tmp_path / f"{league}_curve.csv").read_bytes(), league
    report = tmp_path / "report"
    assert main(["summary", *(str(tmp_path / f"{lg}_curve.csv") for lg in FOUR_LEAGUES),
                 "--out", str(report)]) == 0
    got = {str(path.relative_to(tmp_path)): sha256(path)
           for path in sorted([*tmp_path.glob("*.*"), *report.glob("*.*")])
           if "manifest" not in path.name and "jobs2" not in path.name}
    assert got == PRIMARY_OUTPUTS
