from __future__ import annotations

import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasoninfo import (League, ParseError, Season, parse_season, season_to_csv,
                        summarize_season)
from conftest import game_from_margin, make_game, season_of
from oracles import reference_parse_season

CANONICAL = "date,home,away,home_score,away_score\n"


def parse(text: str, league=League.NFL, label="2012"):
    return parse_season(text.encode("utf-8"), league, label)


def game_encoding(games, teams):
    """The columnar encoding of Game objects that ``Season.columns`` replaced."""
    index = {t: i for i, t in enumerate(teams)}
    return (np.array([index[g.home] for g in games], dtype=np.intp),
            np.array([index[g.away] for g in games], dtype=np.intp),
            np.array([g.margin for g in games], dtype=np.int64))


def test_parse_patriots_texans_row():
    season = parse(CANONICAL + "2012-12-10,NE,HOU,42,14\n")
    g = season.games[0]
    assert g.margin == 28
    assert g.date == dt.date(2012, 12, 10)


def test_parse_tie_row():
    season = parse(CANONICAL + "2012-11-11,STL,SF,24,24\n")
    g = season.games[0]
    assert g.margin == 0


def test_parse_rejects_self_game_with_line_number():
    text = CANONICAL + "2012-09-09,GB,CHI,23,10\n2012-01-01,A,A,3,2\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 3


@pytest.mark.parametrize("row,why", [
    ("2012-09-09,GB,CHI,23", "wrong column count"),
    ("2012-09-09,GB,CHI,23,10,x", "wrong column count"),
    ("2012-09-09,GB,CHI,23.5,10", "float score"),
    ("2012-09-09,GB,CHI,-3,10", "negative score"),
    ("2012-09-09,GB,CHI,,10", "missing score"),
    ("2012-09-09,GB,CHI,99999999999999999999999,10", "score above int64"),
    ("2012-09-09,GB,CHI,23,9223372036854775808", "score of 2**63"),
    ("2012-09-09,GB,CHI,23," + "9" * 5000, "score beyond int()'s digit limit"),
    ("not-a-date,GB,CHI,23,10", "bad date"),
    # Python 3.11's date.fromisoformat reads ISO basic and week dates; 3.10's does not
    ("20120909,GB,CHI,23,10", "ISO basic date"),
    ("2012W367,GB,CHI,23,10", "ISO basic week date"),
    ("2012-W36-7,GB,CHI,23,10", "ISO week date"),
    ("2012-W36,GB,CHI,23,10", "ISO week"),
    ("2012-09-09,,CHI,23,10", "empty team"),
    ("2012-09-09,GB,CHI,2\x003,10", "NUL byte: the csv module refuses it on Python 3.10"),
])
def test_parse_rejects_malformed_rows(row, why):
    with pytest.raises(ParseError) as err:
        parse(CANONICAL + row + "\n")
    assert err.value.line == 2, why


def test_a_field_past_the_csv_size_limit_names_its_line():
    long_id = "T" * 200_000  # csv.field_size_limit() is 131,072 characters
    with pytest.raises(ParseError) as err:
        parse(CANONICAL + "2012-09-09,GB,CHI,23,10\n" + f"2012-09-10,{long_id},GB,3,1\n")
    assert err.value.line == 3 and "field larger than field limit" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse(f"date,{long_id},away,home_score,away_score\n2012-09-09,GB,CHI,23,10\n")
    assert err.value.line == 1


@pytest.mark.parametrize("row", ["2012-01-02,A,B,x,0", "2012-01-02," + "T" * 200_000 + ",B,1,0"],
                         ids=["bad_score", "field_past_the_csv_limit"])
def test_errors_after_a_field_with_a_newline_name_the_physical_line(row):
    """A quoted field may hold a newline, so a row's line is not its record
    number: the bad row here is on physical line 4, the third record."""
    with pytest.raises(ParseError) as err:
        parse(CANONICAL + '2012-01-01,"New\nYork",B,1,0\n' + row + "\n")
    assert err.value.line == 4 and "line 4" in str(err.value)


def test_a_bad_score_is_reported_on_the_first_line_that_holds_it():
    """Each distinct score text is read once; a bad one that later lines
    repeat, in either column, still fails on the first line that holds it."""
    rows = ["2012-09-09,GB,CHI,23,10", "2012-09-10,CHI,NYG,10,x1", "2012-09-11,NYG,GB,x1,23",
            "2012-09-12,GB,NYG,x1,x1"]
    for i in range(1, len(rows)):
        with pytest.raises(ParseError, match="line 3: score 'x1' is not") as err:
            parse(CANONICAL + "\n".join(rows[:i + 1]) + "\n")
        assert err.value.line == 3


def test_parse_accepts_the_largest_int64_score():
    season = parse(CANONICAL + "2012-09-09,GB,CHI,0009223372036854775807,0\n")
    assert season.games[0].home_score == 2**63 - 1


def test_bytes_that_are_not_utf8_name_their_line():
    raw = (CANONICAL + "2012-09-09,GB,CHI,23,10\n").encode("utf-8") + b"2012-09-10,\xff,GB,3,1\n"
    with pytest.raises(ParseError, match="line 3: input is not valid UTF-8") as err:
        parse_season(raw, League.NFL, "2012")
    assert err.value.line == 3


def test_parse_reads_a_binary_stream_as_its_bytes():
    raw = (CANONICAL + "2012-09-09,GB,CHI,23,10\n2012-09-10,CHI,NYG,7,7\n").encode("utf-8")
    from_stream = parse_season(io.BytesIO(raw), League.NFL, "2012")
    from_bytes = parse_season(raw, League.NFL, "2012")
    assert from_stream.rows == from_bytes.rows and from_stream.teams == from_bytes.teams


def test_parse_rejects_empty_inputs():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse(CANONICAL)  # header only, no games


def test_parse_rejects_wrong_header():
    with pytest.raises(ParseError):
        parse("home,away,date,home_score,away_score\n2012-09-09,GB,CHI,23,10\n")


def test_parse_accepts_crlf():
    season = parse("date,home,away,home_score,away_score\r\n2012-12-10,NE,HOU,42,14\r\n")
    assert len(season.games) == 1


def test_parse_preserves_row_order_and_is_deterministic():
    text = CANONICAL + "".join(
        f"2012-09-{day:02d},H{day},A{day},{day},0\n" for day in range(1, 10)
    )
    first = parse(text)
    second = parse(text)
    assert first == second
    assert [g.home for g in first.games] == [f"H{d}" for d in range(1, 10)]


def test_round_trip_fixed_season():
    text = CANONICAL + "2012-12-10,NE,HOU,42,14\n2012-11-11,STL,SF,24,24\n"
    season = parse(text)
    assert parse(season_to_csv(season)) == season


team_ids = st.text(alphabet=st.characters(whitelist_categories=("Lu", "Nd")),
                   min_size=1, max_size=4)


@st.composite
def seasons(draw):
    teams = draw(st.lists(team_ids, min_size=2, max_size=8, unique=True))
    n = draw(st.integers(min_value=1, max_value=30))
    games = []
    for i in range(1, n + 1):
        home = draw(st.sampled_from(teams))
        away = draw(st.sampled_from([t for t in teams if t != home]))
        hs = draw(st.integers(min_value=0, max_value=120))
        as_ = draw(st.integers(min_value=0, max_value=120))
        day = draw(st.integers(min_value=0, max_value=364))
        games.append(make_game(i, home, away, hs, as_,
                               date=dt.date(2012, 1, 1) + dt.timedelta(days=day)))
    return season_of(games, league=League.OTHER, label="prop")


@given(seasons())
@settings(max_examples=50)
def test_round_trip_property(season):
    text = season_to_csv(season)
    again = parse_season(text.encode("utf-8"), season.league, season.season_label)
    assert again == season
    assert ([(col.dtype, col.tolist()) for col in season.columns]
            == [(col.dtype, col.tolist())
                for col in game_encoding(season.games, sorted(season.teams))])


BAD_FIELDS = (  # per column: values that corrupt a row, or that a parser could misread
    ("2012-13-01", "2012-02-30", "not-a-date", "", "2012/09/09", "20120909", "2012-W36-7"),
    ("", '""', "  "),
    ("", '""', "  "),
    ("3.5", "-3", "", "+3", "1e3", "\u0663", "9" * 20, "9" * 5000, "007",
     "0009223372036854775807", "9223372036854775808"),
    ("3.5", "-3", "", "9" * 20, "9" * 5000, "0", "00", "0" * 25 + "1"),
)


@st.composite
def season_texts(draw):
    """CSV text of a small season, valid or with a few corrupted rows: CRLF
    or LF endings, blank lines, spaces around fields, quoted fields and
    dates drawn from a few so that they repeat."""
    dates = draw(st.lists(st.dates(dt.date(2000, 1, 1), dt.date(2030, 12, 31)).map(str),
                          min_size=1, max_size=3))
    teams = ["A", "B", "LAD", "New York", "x,y"]
    n = draw(st.integers(min_value=1, max_value=12))
    corrupt = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=2)
                   if draw(st.booleans()) else st.just(set()))
    lines = [CANONICAL.strip()]
    for i in range(n):
        home, away = draw(st.permutations(teams))[:2]
        fields = [draw(st.sampled_from(dates)), home, away,
                  str(draw(st.integers(0, 200))), str(draw(st.integers(0, 200)))]
        # several faults in one row show which check comes first
        for fault in sorted(draw(st.sets(st.integers(min_value=0, max_value=6), min_size=1,
                                         max_size=3)) if i in corrupt else ()):
            if fault < 5:
                fields[fault] = draw(st.sampled_from(BAD_FIELDS[fault]))
            elif fault == 5:
                fields[2] = fields[1]  # a self-game
            else:  # too few or too many columns
                fields = fields[:draw(st.integers(min_value=1, max_value=4))] + \
                    ["9"] * draw(st.integers(min_value=0, max_value=2))
        cells = []
        for field in fields:
            if "," in field or draw(st.booleans()):  # a space before a quote makes it literal
                cells.append('"' + field + '"' + " " * draw(st.integers(0, 2)))
            else:
                cells.append(" " * draw(st.integers(0, 2)) + field + " " * draw(st.integers(0, 2)))
        lines.append(",".join(cells))
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            lines.append("")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol * draw(st.integers(min_value=0, max_value=2))


def parse_outcome(parser, raw):
    """What ``parser`` makes of ``raw``: its ParseError message and line, or
    the season's rows, teams and columns."""
    try:
        season = parser(raw, League.OTHER, "oracle")
    except ParseError as exc:
        return "error", str(exc), exc.line
    return ("season", season.rows, season.teams,
            [(col.dtype.str, col.tobytes()) for col in season.columns])


@given(season_texts())
@settings(max_examples=300, deadline=None)
def test_parser_matches_the_reference_row_loop(text):
    raw = text.encode("utf-8")
    got = parse_outcome(parse_season, raw)
    assert got == parse_outcome(reference_parse_season, raw)
    if got[0] == "season":
        assert "teams" in parse_season(raw, League.OTHER, "x").__dict__  # filled by the scan


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
def test_win_indicator_follows_margin_sign(hs, as_):
    g = make_game(1, "A", "B", hs, as_)
    assert g.margin == hs - as_


def test_summary_counts():
    games = [game_from_margin(i, "ABCD"[i % 4], "ABCD"[(i + 1) % 4], m)
             for i, m in enumerate([3, 1, -2, 0])]
    s = summarize_season(season_of(games))
    assert s.home_win_fraction == 0.5
    assert s.tie_fraction == 0.25


def test_summary_games_per_team_nfl_shape():
    games = []
    i = 1
    for rnd in range(16):
        for t in range(0, 32, 2):
            games.append(game_from_margin(i, f"T{t}", f"T{t + 1}", 7 if (i + rnd) % 2 else -3))
            i += 1
    s = summarize_season(season_of(games))
    assert s.n_games == 256
    assert s.n_teams == 32
    assert s.games_per_team_mean == 16.0


def test_game_rejects_self_play_and_negative_scores():
    with pytest.raises(ValueError):
        make_game(1, "A", "A", 3, 2)
    with pytest.raises(ValueError):
        make_game(1, "A", "B", -1, 2)


def test_season_rejects_duplicates_and_empty():
    g = make_game(1, "A", "B", 3, 2)
    with pytest.raises(ValueError):
        season_of([g, g])
    with pytest.raises(ValueError):
        season_of([])


def test_season_rejects_empty_rows():
    with pytest.raises(ValueError):
        Season(League.OTHER, "empty", ())


def test_from_games_keeps_the_callers_games():
    games = [make_game(7, "A", "B", 3, 2), make_game(3, "B", "C", 0, 0)]
    season = season_of(games)
    assert [id(g) for g in season.games] == [id(g) for g in games]


def test_parsed_games_are_numbered_in_row_order():
    season = parse(CANONICAL + "2012-09-10,B,C,1,0\n2012-09-09,A,B,3,2\n2012-09-11,C,A,0,0\n")
    assert [(g.game_id, g.home) for g in season.games] == [
        ("g00001", "B"), ("g00002", "A"), ("g00003", "C")]
