from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasoninfo import (League, ParseError, Season, parse_season, season_to_csv,
                        summarize_season)
from conftest import game_from_margin, make_game, season_of

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
    assert g.home_win == 1
    assert g.margin == 28
    assert g.date == dt.date(2012, 12, 10)


def test_parse_tie_row():
    season = parse(CANONICAL + "2012-11-11,STL,SF,24,24\n")
    g = season.games[0]
    assert g.home_win == 0
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
    ("2012-09-09,,CHI,23,10", "empty team"),
])
def test_parse_rejects_malformed_rows(row, why):
    with pytest.raises(ParseError) as err:
        parse(CANONICAL + row + "\n")
    assert err.value.line == 2, why


def test_parse_accepts_the_largest_int64_score():
    season = parse(CANONICAL + "2012-09-09,GB,CHI,0009223372036854775807,0\n")
    assert season.games[0].home_score == 2**63 - 1


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


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
def test_win_indicator_follows_margin_sign(hs, as_):
    g = make_game(1, "A", "B", hs, as_)
    assert g.margin == hs - as_
    assert g.home_win == (1 if g.margin > 0 else 0)


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
