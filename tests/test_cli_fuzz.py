"""Property test of the CLI contract: whatever season CSVs, curve files and
flags ``main`` is given, it exits 0, 2, 3 or 4, prints no traceback and
leaves no temp file; on a non-zero exit it adds no path and changes no
file's bytes.

Each input is drawn valid and then, half of the time, given one edit from
a list of malformed or boundary values, so that both the rejections and
the full paths behind them are reached. The JSON inputs, curve files and
``synth --strengths`` files, are also edited as raw text: nesting past the
parser's limit, lone surrogate escapes, huge integers, ``NaN`` literals
and bytes that are not UTF-8."""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from seasoninfo.cli import CURVE_COLUMNS, main

HEADER = ["date", "home", "away", "home_score", "away_score"]
PAIRS = [(h, a) for h in ("AA", "BB", "CC", "DD") for a in ("AA", "BB", "CC", "DD") if h != a]
FRACTIONS = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]


def edited(valid, edits):
    """``valid`` as drawn, or with one of ``edits`` (functions) applied."""
    return st.one_of(valid, st.tuples(valid, st.sampled_from(edits)).map(
        lambda pair: pair[1](pair[0])))


def one_more(row):
    return lambda rows: rows + [row]


game = st.tuples(st.dates(dt.date(2012, 1, 1), dt.date(2012, 12, 31)), st.sampled_from(PAIRS),
                 st.integers(0, 30), st.integers(0, 30)).map(
    lambda g: [g[0].isoformat(), *g[1], g[2], g[3]])
season = edited(st.lists(game, min_size=6, max_size=24).map(lambda games: [HEADER, *games]), [
    lambda rows: [HEADER[:4], *rows[1:]],
    lambda rows: rows[:1],
    one_more(["2012-02-30", "AA", "BB", 1, 0]),
    one_more(["2012-03-01", "AA", "AA", 1, 0]),
    one_more(["2012-03-01", "AA", "BB", -1, 0]),
    one_more(["2012-03-01", "AA", "BB", 99999999999999999999999, 0]),
    one_more(["2012-03-01", "AA", "BB", 2**63, 0]),
    one_more(["2012-03-01", "AA", "BB", 2**63 - 1, 0]),
])


@st.composite
def curve_rows(draw):
    rows = []
    for league in draw(st.lists(st.sampled_from(["NFL", "NBA", "MLB"]), min_size=1,
                                max_size=2, unique=True)):
        per_team = draw(st.sampled_from([16.0, 82.0, 162.0, 1e-9, 1e9]))
        for label in draw(st.sampled_from([["s1"], ["s1", "s2"]])):
            for f in draw(st.lists(st.sampled_from(FRACTIONS), min_size=1, unique=True)):
                rows.append({
                    "league": league, "season": label, "fraction": f,
                    "games_per_team": draw(st.sampled_from([f * per_team, per_team])),
                    "mean_bt_acc": draw(st.floats(0.0, 1.0)),
                    "sd_bt_acc": draw(st.floats(0.0, 0.5)),
                    "mean_mov_acc": draw(st.floats(0.0, 1.0)),
                    "sd_mov_acc": draw(st.floats(0.0, 0.5)),
                    "baseline_acc": draw(st.floats(0.0, 1.0)),
                    "bt_failures": draw(st.integers(0, 99)),
                    "mov_failures": 0,
                })
    return rows


def set_first(column, value):
    return lambda rows: [{**rows[0], column: value}, *rows[1:]]


BAD_CURVE_VALUES = [("fraction", math.nan), ("fraction", 0.0), ("fraction", 1.0),
                    ("fraction", "x"), ("games_per_team", 0.0), ("games_per_team", math.inf),
                    ("games_per_team", 1e-300), ("games_per_team", 1e300),
                    ("mean_mov_acc", math.nan), ("mean_bt_acc", 1.5), ("baseline_acc", -0.1),
                    ("sd_bt_acc", -1.0), ("sd_mov_acc", math.inf), ("bt_failures", -1),
                    ("mov_failures", 2.5), ("league", 5), ("season", None)]


def first_value(key, literal):
    """The JSON text with the value of its first ``key`` written ``literal``."""
    return lambda text: re.sub(rf'(?<="{key}": )("(?:[^"\\]|\\.)*"|[^,}}\]]+)',
                               lambda _: literal, text, count=1)


def first_key(key, literal):
    return lambda text: text.replace(f'"{key}"', literal, 1)


# Value literals that json.dumps never writes for a drawn input.
ODD_LITERALS = ["NaN", "Infinity", "-Infinity", "1" + "0" * 400, "1" + "0" * 5000, "1e400",
                "-0", "true", "null", '"\\ud800"', '"x\\udfffx"', "[]", "{}"]
ODD_KEYS = ['"\\ud800"', '"T\\udc80"', '"\\udfff\\ud800"']
# Edits of a whole file's text. Written with surrogateescape, "\udcff" is the
# byte 0xff, which is not UTF-8.
WHOLE_JSON_EDITS = [lambda text: "[" * 100_000 + "]" * 100_000,
                    lambda text: '{"a": ' * 100_000 + "0" + "}" * 100_000,
                    lambda text: text[:-1], lambda text: "\ufeff" + text,
                    lambda text: text + "\udcff", lambda text: "[]"]
CURVE_JSON_EDITS = WHOLE_JSON_EDITS + [first_key("curves", k) for k in ODD_KEYS] + [
    first_value(column, literal) for column in CURVE_COLUMNS for literal in ODD_LITERALS]
STRENGTHS_EDITS = WHOLE_JSON_EDITS + [first_key("T1", k) for k in ODD_KEYS] + [
    first_value("T1", literal) for literal in ODD_LITERALS]

curve_files = st.tuples(
    edited(curve_rows(), [set_first(c, v) for c, v in BAD_CURVE_VALUES]
           + [lambda rows: rows + rows[:1],  # a duplicate row
              lambda rows: [{c: r[c] for c in CURVE_COLUMNS[:-1]} for r in rows]]),
    st.lists(st.sampled_from([".csv", ".json"]), min_size=1, max_size=2),
    st.one_of(st.none(), st.sampled_from(CURVE_JSON_EDITS)),  # of the first file, then JSON
)


def flags(valid: dict, bad: list):
    """Each flag of ``valid`` with one of its values, then maybe one ``bad`` pair."""
    return edited(st.fixed_dictionaries({f: st.sampled_from(v) for f, v in valid.items()}),
                  [lambda d, f=f, v=v: {**d, f: v} for f, v in bad])


curve_flags = flags(
    {"--league": ["NFL", "NHL", "OTHER"], "--x-grid": ["0.5", "0.25,0.75", "0.125,0.5,0.875"],
     "--replicates": ["1", "2", "3"], "--seed": ["0", "7", "18446744073709551615"],
     "--bt-penalty": ["1", "0.5", "1e300"], "--mov-penalty": ["1", "0", "1e300"]},
    [("--bt-penalty", "0"), ("--bt-penalty", "nan"), ("--mov-penalty", "-1"),
     ("--mov-penalty", "inf"), ("--x-grid", "0.5,0.5"), ("--x-grid", "1"), ("--x-grid", ""),
     ("--x-grid", "x"), ("--replicates", "0"), ("--jobs", "0"), ("--league", "XFL"),
     ("--seed", "-1"), ("--seed", "99999999999999999999999")])
synth_flags = flags(
    {"--teams/--games-per-team": [("4", "3"), ("2", "1"), ("6", "2")], "--seed": ["0", "5"],
     "--home-adv": ["0", "0.3", "-2"], "--strength-sd": ["1", "0", "3"],
     "--mov-scale": ["7", "0.1", "1e300"], "--mov-noise-sd": ["12", "0.5"]},
    [(f, v) for f in ("--home-adv", "--strength-sd", "--mov-scale", "--mov-noise-sd")
     for v in ("nan", "inf", "-inf")]
    + [("--mov-scale", "0"), ("--strength-sd", "-1"), ("--seed", "-1"),
       ("--teams/--games-per-team", ("3", "3"))])



@st.composite
def strengths_synth(draw):
    """Synth flags without --strength-sd, and the text of a --strengths file
    for the drawn team count, maybe edited."""
    flag_values = {f: v for f, v in draw(synth_flags).items() if f != "--strength-sd"}
    n_teams = int(flag_values["--teams/--games-per-team"][0])
    text = json.dumps({f"T{i + 1}": draw(st.floats(-3.0, 3.0)) for i in range(n_teams)})
    return flag_values, draw(edited(st.just(text), STRENGTHS_EDITS))


command = st.one_of(
    st.tuples(st.just("curve"), st.lists(season, min_size=1, max_size=2), curve_flags,
              st.sampled_from([".csv", ".json"])),
    st.tuples(st.just("summary"), curve_files),
    st.tuples(st.just("synth"), synth_flags),
    st.tuples(st.just("strengths"), strengths_synth()),
    st.tuples(st.just("validate"), st.lists(season, min_size=1, max_size=2)),
)


def write_csv(path: Path, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def write_json_text(path: Path, text: str) -> Path:
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def write_curves(tmp: Path, rows, suffixes, raw_edit) -> list[Path]:
    """The rows dealt round-robin into one file per suffix; with a
    ``raw_edit``, the first file is JSON and its text is edited."""
    if raw_edit:
        suffixes = [".json", *suffixes[1:]]
    paths = []
    for i, suffix in enumerate(suffixes):
        mine = rows[i::len(suffixes)]
        path = tmp / f"curve{i}{suffix}"
        if suffix == ".json":
            text = json.dumps({"curves": mine})
            write_json_text(path, raw_edit(text) if raw_edit and i == 0 else text)
        else:
            columns = list(mine[0]) if mine else list(CURVE_COLUMNS)
            write_csv(path, [columns] + [[r[c] for c in columns] for r in mine])
        paths.append(path)
    return paths


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    return code, err.getvalue()


def snapshot(tmp: Path) -> dict:
    """Every path under ``tmp``, with a file's bytes (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in tmp.rglob("*")}


def check_run(tmp: Path, argv, outputs) -> int:
    before = snapshot(tmp)
    code, err = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    after = snapshot(tmp)
    left = set(after) - set(before)
    assert not [p for p in left if p.name.endswith(".tmp")], (argv, left)
    if code == 0:
        assert all(p.exists() for p in outputs), (argv, left)
    else:
        assert after == before, (argv, code, left)
    return code


def flag_argv(flag_values: dict) -> list[str]:
    return [f"{f}={v}" for flag, value in flag_values.items()
            for f, v in zip(flag.split("/"), value if isinstance(value, tuple) else (value,))]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(command)
def test_cli_exits_cleanly_on_arbitrary_input(cmd):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        name = cmd[0]
        if name in ("curve", "validate"):
            inputs = [write_csv(tmp / f"s{i}.csv", rows) for i, rows in enumerate(cmd[1])]
        if name == "curve":
            out = tmp / f"out{cmd[3]}"
            check_run(tmp, ["curve", *map(str, inputs), "--out", str(out), *flag_argv(cmd[2])],
                      [out, out.with_name(out.name + ".manifest.json")])
        elif name == "summary":
            out = tmp / "report"
            check_run(tmp, ["summary", *map(str, write_curves(tmp, *cmd[1])), "--out", str(out)],
                      [out / n for n in ("summary.json", "table_or.csv", "table_slopes.csv",
                                         "manifest.json")])
        elif name in ("synth", "strengths"):
            out = tmp / "synth.csv"
            argv = ["synth", "--out", str(out)]
            if name == "strengths":
                flag_values, text = cmd[1]
                argv += ["--strengths", str(write_json_text(tmp / "strengths.json", text))]
            else:
                flag_values = cmd[1]
            if check_run(tmp, argv + flag_argv(flag_values),
                         [out, out.with_suffix(".truth.json")]) == 0:
                # What synth writes, curve must take or reject cleanly.
                check_run(tmp, ["curve", str(out), "--league", "OTHER", "--x-grid", "0.5",
                                "--replicates", "2", "--out", str(tmp / "c.csv")],
                          [tmp / "c.csv"])
        else:
            check_run(tmp, ["validate", *map(str, inputs)], [])
