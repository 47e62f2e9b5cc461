"""Command-line interface.

Subcommands: ``curve`` (run the subsampling protocol on season CSVs),
``summary`` (digest curve tables into odds ratios, slopes, ratios, and
breakpoints), ``synth`` (generate a synthetic season plus truth sidecar),
and ``validate`` (parse-only check of season CSVs).

Every command is a pure function of its inputs and flags: rows and JSON
keys are ordered deterministically and all numbers are serialized at six
significant digits, so identical invocations produce byte-identical
primary outputs. Exit codes: 0 ok, 2 usage/config error, 3 data error,
4 fit failure (every replicate failed at some fraction).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import errno
import hashlib
import io
import json
import math
import os
import secrets
import sys
import typing
from pathlib import Path

from . import __version__
from .analysis import SLOPE_COLUMNS, CurveRow, informativeness_ratios, summarize_league
from .errors import ConfigError, FitError, ParseError, SeasonInfoError
from .harness import ProtocolConfig, run_seasons
from .ingest import League, parse_season, season_to_csv, summarize_season
from .synth import SynthSpec, generate_season

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FIT = 4


def fmt6(x: float) -> str:
    """Fixed six-significant-digit rendering used for all output numbers."""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".6g")


def _json_num(x: float):
    if not math.isfinite(x):
        return None
    return float(fmt6(x))


def _json_value(value):
    """``value`` with every float in it, also inside dicts and lists, at six
    significant digits (None if not finite); other values as they are."""
    if isinstance(value, float):
        return _json_num(value)
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return value


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _commit(files, manifest=None, inputs=(), **extra) -> None:
    """Write ``files`` (target ``Path``: text) as one set, then, if given, the
    ``manifest``: tool, version, time, ``extra``, ``inputs`` as given and the
    sha256 of each text's UTF-8 bytes. Every temp file is written, and no
    target is a directory, before the first rename; the manifest is renamed
    last, and no temp file is left."""
    blobs = {path: text.encode("utf-8") for path, text in files.items()}
    if manifest is not None:
        blobs[manifest] = _json_text({
            "tool": "seasoninfo",
            "version": __version__,
            "created_utc": dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds"),
            **extra,
            "inputs": inputs,
            "outputs": [{"path": str(path), "sha256": hashlib.sha256(blob).hexdigest()}
                        for path, blob in blobs.items()],
        }).encode("utf-8")
    temps = []
    try:
        for path, blob in blobs.items():
            tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
            with open(tmp, "xb") as fh:
                temps.append(tmp)
                fh.write(blob)
        for path in blobs:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in zip(temps, blobs):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


# The curve columns are CurveRow's fields, in order. A field is read back
# by calling its type on the CSV text, or from a JSON value that already
# has that type.
_CURVE_FIELDS = tuple(typing.get_type_hints(CurveRow).items())
CURVE_COLUMNS = tuple(name for name, _ in _CURVE_FIELDS)


def _from_csv(kind, text):
    if text is None:  # DictReader's filler for a row shorter than the header
        raise ValueError("a row has fewer fields than the header")
    return kind(text)


def _known(raw, names):
    for name in raw:  # DictReader keys a row's fields past the header None
        if name not in names:
            raise ValueError(f"unknown field {name!r}" if name is not None else
                             f"a row has more fields than the header: {raw[None]!r}")


def _curve_row(raw, parse) -> CurveRow:
    row = CurveRow(**{name: parse(kind, raw[name]) for name, kind in _CURVE_FIELDS})
    _known(raw, CURVE_COLUMNS)
    return row


def _from_json(kind, value):
    """``value`` as ``kind``; a float field also takes a JSON integer, and a
    string must encode to UTF-8 (a lone surrogate escape does not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(f"{value!r} is not a JSON {kind.__name__}")
    if kind is str:
        value.encode("utf-8")  # raises UnicodeEncodeError, a ValueError
    return kind(value)


def _parse_x_grid(raw: str | None) -> tuple[float, ...]:
    if raw is None:
        return ProtocolConfig.x_grid
    try:
        grid = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad x-grid {raw!r}; expected comma-separated fractions") from None
    printed = {}
    for f in grid:  # two that print alike would write rows no reader can tell apart
        if printed.setdefault(fmt6(f), f) != f:
            raise ConfigError(f"x-grid fractions {printed[fmt6(f)]!r} and {f!r} both "
                              f"print as {fmt6(f)}")
    return grid


def _load_seasons(paths, league: League):
    """(path, sha256, season) for each of ``paths``, loaded as the caller asks
    for it: the file is read once, and the bytes hashed are the bytes parsed."""
    for path in map(Path, paths):
        raw = path.read_bytes()
        yield path, hashlib.sha256(raw).hexdigest(), parse_season(raw, league, path.stem)


def cmd_curve(args) -> int:
    league = League(args.league)
    config = ProtocolConfig(
        x_grid=_parse_x_grid(args.x_grid),
        replicates=args.replicates,
        master_seed=args.seed,
        bt_penalty=args.bt_penalty,
        mov_penalty=args.mov_penalty,
    )
    if args.jobs < 1:  # run_seasons checks it too, but only once the inputs are read
        raise ConfigError(f"jobs must be at least 1, got {args.jobs}")
    labels = [Path(p).stem for p in args.inputs]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"two inputs share a season label (file stem): {labels}")
    try:
        "".join(labels).encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"a season label (file stem) is not UTF-8: {labels!r}") from None
    seasons = list(_load_seasons(args.inputs, league))

    rows = []
    schedule = {"jobs": args.jobs}
    runs = run_seasons([season for _, _, season in seasons], config, args.jobs, schedule)
    for (_, _, season), points in zip(seasons, runs):
        for pt in points:
            if pt.bt_failures >= config.replicates:
                raise FitError(f"every replicate failed for {season.season_label} "
                               f"at fraction {pt.fraction}")
            rows.append(CurveRow(league.value, season.season_label, **dataclasses.asdict(pt)))

    out = Path(args.out)
    _commit({out: curve_text(out, rows)}, out.with_name(out.name + ".manifest.json"), [
        {"path": str(path), "season": season.season_label, "sha256": digest}
        for path, digest, season in seasons
    ], league=league.value, config=dataclasses.asdict(config), schedule=schedule)
    return EXIT_OK


def curve_text(path, rows) -> str:
    """Curve rows as JSON text if ``path`` ends in .json, else as CSV text."""
    if Path(path).suffix == ".json":
        return _json_text({"curves": [_json_value(dataclasses.asdict(row)) for row in rows]})
    return _csv_text(CURVE_COLUMNS, ([v if isinstance(v, str) else fmt6(v)
                                      for v in dataclasses.astuple(row)] for row in rows))


def read_curve_file(path, data: bytes | None = None) -> list[CurveRow]:
    """Load curve rows from a file written by ``curve`` (CSV or JSON); ``data``
    is the file's bytes, if the caller has read them."""
    path = Path(path)
    try:
        text = (path.read_bytes() if data is None else data).decode("utf-8")
        if path.suffix == ".json":
            doc = json.loads(text)
            raw_rows, parse = doc["curves"], _from_json
            _known(doc, ("curves",))
        else:
            raw_rows, parse = list(csv.DictReader(io.StringIO(text, newline=""))), _from_csv
        rows = [_curve_row(raw, parse) for raw in raw_rows]
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError, csv.Error) as exc:
        # RecursionError: JSON nested past the parser's limit, about 1,000 levels
        raise ParseError(f"malformed curve file {path}: {exc}") from None
    for i, row in enumerate(rows, start=1):
        problem = row.out_of_range()
        if problem:
            raise ParseError(f"curve file {path}, row {i}: {problem}")
    if not rows:
        raise ParseError(f"curve file {path} has no rows")
    return rows


def cmd_summary(args) -> int:
    rows: list[CurveRow] = []
    inputs = []
    first_seen: dict[tuple[str, str, float], str] = {}
    for p in args.inputs:
        data = Path(p).read_bytes()
        inputs.append({"path": str(p), "sha256": hashlib.sha256(data).hexdigest()})
        for row in read_curve_file(p, data):
            key = (row.league, row.season, row.fraction)
            if key in first_seen:
                raise ParseError(f"{p}: duplicate curve row for league {row.league}, season "
                                 f"{row.season}, fraction {fmt6(row.fraction)} "
                                 f"(first in {first_seen[key]})")
            first_seen[key] = p
            rows.append(row)

    by_league: dict[str, list[CurveRow]] = {}
    for r in rows:
        by_league.setdefault(r.league, []).append(r)
    leagues = sorted(by_league)

    prelim = {lg: summarize_league(lg, by_league[lg]) for lg in leagues}
    slopes_by_league = {lg: rep.slopes for lg, rep in prelim.items()}
    reports = {
        lg: summarize_league(lg, by_league[lg], slopes_by_league=slopes_by_league)
        for lg in leagues
    }

    payload = {
        "tool": "seasoninfo",
        "version": __version__,
        "leagues": {lg: _report_dict(reports[lg]) for lg in leagues},
        "informativeness_ratios": _json_value({
            f"{a}/{b}": {fmt6(col): ratio for col, ratio in cols.items()}
            for (a, b), cols in informativeness_ratios(slopes_by_league).items()}),
    }

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _commit({
        out_dir / "summary.json": _json_text(payload),
        out_dir / "table_or.csv": _csv_text(["league", "or_mov_875"], (
            [lg, "" if "or_mov_875" in reports[lg].undefined else fmt6(reports[lg].or_mov_875)]
            for lg in leagues)),
        out_dir / "table_slopes.csv": _csv_text(
            ["league"] + [f"slope_{fmt6(c)}" for c in SLOPE_COLUMNS],
            ([lg] + [fmt6(reports[lg].slopes[c]) if c in reports[lg].slopes else ""
                     for c in SLOPE_COLUMNS] for lg in leagues)),
    }, out_dir / "manifest.json", inputs)
    return EXIT_OK


# The columns of aggregate_league_curve's tuples, as summary.json names them.
AGGREGATE_KEYS = ("fraction", "games_per_team", "mov_acc_mean", "bt_acc_mean",
                  "baseline_mean", "mov_acc_min", "mov_acc_max")


def _report_dict(report) -> dict:
    out = _json_value({
        "seasons_used": list(report.seasons_used),
        "or_mov_875": report.or_mov_875,
        "per_season_or": report.per_season_or,
        "slopes": {fmt6(c): v for c, v in report.slopes.items()},
        "informativeness_ratios": report.informativeness_ratios,
        "breakpoint": dataclasses.asdict(report.breakpoint) if report.breakpoint else None,
        "curve": [dict(zip(AGGREGATE_KEYS, point)) for point in report.curve],
    })
    if report.undefined:
        out["or_undefined"] = dict(report.undefined)
    return out


def cmd_synth(args) -> int:
    strengths = None
    strength_sd = args.strength_sd
    if args.strengths is not None:
        try:  # an integer reaches SynthSpec as a float, inf if too large for one
            strengths = json.loads(Path(args.strengths).read_text(encoding="utf-8"),
                                   parse_int=float)
        except UnicodeDecodeError as exc:
            raise ParseError(f"--strengths file is not UTF-8: {exc}") from None
        except RecursionError:  # the parser's own limit, about 1,000 levels
            raise ParseError("--strengths file nests JSON too deeply") from None
    elif strength_sd is None:
        strength_sd = 1.0

    spec = SynthSpec(
        n_teams=args.teams,
        games_per_team=args.games_per_team,
        seed=args.seed,
        home_adv=args.home_adv,
        mov_scale=args.mov_scale,
        mov_noise_sd=args.mov_noise_sd,
        strengths=strengths,
        strength_sd=strength_sd,
    )
    season, truth = generate_season(spec)

    out = Path(args.out)
    _commit({out: season_to_csv(season),
             out.with_suffix(".truth.json"): _json_text(_json_value(dataclasses.asdict(truth)))})
    return EXIT_OK


def cmd_validate(args) -> int:
    for path, _, season in _load_seasons(args.inputs, League.OTHER):
        s = summarize_season(season)
        print(
            f"{path}: {s.n_games} games, {s.n_teams} teams, "
            f"home-win {fmt6(s.home_win_fraction)}, ties {fmt6(s.tie_fraction)}, "
            f"games/team {fmt6(s.games_per_team_mean)}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seasoninfo",
        description="Measure how much a season's games reveal about team strength.",
    )
    parser.add_argument("--version", action="version", version=f"seasoninfo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="run the train/test protocol on season CSVs")
    p.add_argument("inputs", nargs="+", metavar="SEASON_CSV")
    p.add_argument("--league", required=True, choices=[l.value for l in League])
    p.add_argument("--out", required=True, help="output table (.csv or .json)")
    p.add_argument("--x-grid", default=None,
                   help="comma-separated training fractions (default 0.125..0.875)")
    p.add_argument("--replicates", type=int, default=ProtocolConfig.replicates)
    p.add_argument("--seed", type=int, default=ProtocolConfig.master_seed)
    p.add_argument("--bt-penalty", type=float, default=ProtocolConfig.bt_penalty)
    p.add_argument("--mov-penalty", type=float, default=ProtocolConfig.mov_penalty)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("summary", help="summarize curve tables into report + tables")
    p.add_argument("inputs", nargs="+", metavar="CURVE_FILE")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("synth", help="generate a synthetic season with known truth")
    p.add_argument("--teams", type=int, required=True)
    p.add_argument("--games-per-team", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--home-adv", type=float, default=SynthSpec.home_adv)
    p.add_argument("--strength-sd", type=float, default=None)
    p.add_argument("--strengths", default=None,
                   help="JSON file of explicit team strengths")
    p.add_argument("--mov-scale", type=float, default=SynthSpec.mov_scale)
    p.add_argument("--mov-noise-sd", type=float, default=SynthSpec.mov_noise_sd)
    p.add_argument("--out", required=True, help="season CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="parse season CSVs and report basic stats")
    p.add_argument("inputs", nargs="+", metavar="SEASON_CSV")
    p.set_defaults(func=cmd_validate)

    return parser


# The parser depends on no argument, so main builds it on its first call and
# reuses it: one call's parse leaves nothing in it that the next call reads.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command in process and return its exit code. argparse's usage
    errors and ``--help``/``--version`` raise SystemExit."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SeasonInfoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
