"""Game-log ingestion: canonical CSV in, validated Season out.

The one accepted input format is a UTF-8 CSV with the exact header
``date,home,away,home_score,away_score`` (ISO dates, integer scores from
0 to 2**63 - 1, LF or CRLF). Ties are kept; downstream code decides what
to do with them.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import io
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ParseError

CSV_HEADER = ("date", "home", "away", "home_score", "away_score")
MAX_SCORE = 2**63 - 1  # scores and margins are held as int64


class League(str, enum.Enum):
    NFL = "NFL"
    NBA = "NBA"
    NHL = "NHL"
    MLB = "MLB"
    OTHER = "OTHER"


@dataclass(frozen=True)
class Game:
    """One contest, scores from the home team's perspective."""

    game_id: str
    date: dt.date
    home: str
    away: str
    home_score: int
    away_score: int

    def __post_init__(self):
        if self.home == self.away:
            raise ValueError(f"game {self.game_id}: home and away are both {self.home!r}")
        if self.home_score < 0 or self.away_score < 0:
            raise ValueError(f"game {self.game_id}: negative score")

    @property
    def margin(self) -> int:
        """Signed home margin of victory; 0 is a tie."""
        return self.home_score - self.away_score


@dataclass(frozen=True)
class Season:
    """Validated, immutable collection of one league-year's games: its rows
    ``(date, home, away, home_score, away_score)`` in file order. Rows given
    here are taken as validated; ``parse_season`` and ``from_games`` check
    them. Everything else is derived from the rows on first use."""

    league: League
    season_label: str
    rows: tuple[tuple[dt.date, str, str, int, int], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("season has no games")

    @classmethod
    def from_games(cls, league: League, season_label: str, games) -> "Season":
        """The season of ``games``, which keep their ids as ``games``."""
        games = tuple(games)
        if len({g.game_id for g in games}) != len(games):
            raise ValueError("duplicate game_id in season")
        season = cls(league, season_label, game_rows(games))
        season.__dict__["games"] = games
        return season

    @cached_property
    def teams(self) -> frozenset[str]:
        return frozenset(t for _, home, away, _, _ in self.rows for t in (home, away))

    @cached_property
    def games(self) -> tuple[Game, ...]:
        """One ``Game`` per row, with ids ``g00001``, ``g00002``, ... in row order."""
        return tuple(Game(f"g{i:05d}", *row) for i, row in enumerate(self.rows, start=1))

    @cached_property
    def columns(self):
        """Home and away indices into ``sorted(teams)`` and the home margins
        (``encode_rows``), read-only."""
        columns = encode_rows(self.rows, sorted(self.teams))
        for col in columns:
            col.flags.writeable = False
        return columns


@dataclass(frozen=True)
class SeasonSummary:
    n_games: int
    n_teams: int
    home_win_fraction: float
    tie_fraction: float
    games_per_team_mean: float


def game_rows(games) -> tuple:
    """``games`` as Season rows."""
    return tuple((g.date, g.home, g.away, g.home_score, g.away_score) for g in games)


def encode_rows(rows, teams: Sequence[str]):
    """Columnar form of game rows ``(date, home, away, home_score,
    away_score)``: home and away indices into ``teams`` (a sorted team
    list) as intp and the signed home margins as int64."""
    index = {t: i for i, t in enumerate(teams)}
    home = np.array([index[r[1]] for r in rows], dtype=np.intp)
    away = np.array([index[r[2]] for r in rows], dtype=np.intp)
    margin = np.array([r[3] - r[4] for r in rows], dtype=np.int64)
    return home, away, margin


def parse_season(source, league: League, season_label: str) -> Season:
    """Parse canonical CSV from bytes or a binary stream into a Season.

    Raises ParseError naming the 1-based physical line on which the row
    ends for malformed rows (wrong column count, bad date, non-integer
    score, a score above MAX_SCORE, home == away) and for text the csv
    module refuses (such as a field longer than ``csv.field_size_limit()``),
    naming the line of the first byte that is not UTF-8, and for files with
    no data rows. The season's ``teams`` are collected during the scan.
    """
    if isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    else:
        raw = source.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}",
                         line=raw.count(b"\n", 0, exc.start) + 1) from None

    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    teams = set()
    dates, scores = {}, {}  # each distinct date and score string is parsed once
    try:  # csv.Error: text the reader refuses, such as a field past its size limit
        header = next(reader, None)
        if header is None:
            raise ParseError("empty season: file has no rows")
        if tuple(header) != CSV_HEADER:
            raise ParseError(
                f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}", line=1
            )
        for row in reader:
            line_no = reader.line_num  # a quoted field may span lines
            if not row:
                continue  # ignore a trailing blank line
            if len(row) != 5:
                raise ParseError(f"expected 5 columns, got {len(row)}", line=line_no)
            date_s, home, away, hs_s, as_s = map(str.strip, row)
            date = dates.get(date_s)
            if date is None:
                try:  # Python 3.11's fromisoformat also reads ISO basic and week dates
                    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", date_s):
                        raise ValueError
                    date = dates[date_s] = dt.date.fromisoformat(date_s)
                except ValueError:
                    raise ParseError(f"bad date {date_s!r}", line=line_no) from None
            if not home or not away:
                raise ParseError("empty team id", line=line_no)
            if home == away:
                raise ParseError(f"home and away are both {home!r}", line=line_no)
            home_score = scores.get(hs_s)
            if home_score is None:
                home_score = scores[hs_s] = _score(hs_s, line_no)
            away_score = scores.get(as_s)
            if away_score is None:
                away_score = scores[as_s] = _score(as_s, line_no)
            rows.append((date, home, away, home_score, away_score))
            teams.add(home)
            teams.add(away)
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}", line=reader.line_num) from None

    if not rows:
        raise ParseError("empty season: file has a header but no games")
    season = Season(league, season_label, tuple(rows))
    season.__dict__["teams"] = frozenset(teams)
    return season


def _score(s: str, line_no: int) -> int:
    """The score field ``s`` of line ``line_no`` as an int, or ParseError."""
    if not (s.isascii() and s.isdigit()):
        raise ParseError(f"score {s!r} is not a non-negative integer", line=line_no)
    # int() refuses 4,300+ digits, so a long score is measured first
    if (len(s) > 19 and len(s.lstrip("0")) > 19) or (score := int(s)) > MAX_SCORE:
        raise ParseError(f"score {s[:30]} is above {MAX_SCORE}", line=line_no)
    return score


def season_to_csv(season: Season) -> str:
    """Serialize back to canonical CSV (LF line endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(season.rows)  # str() of a date is its ISO form
    return buf.getvalue()


def summarize_season(season: Season) -> SeasonSummary:
    n, margin = len(season.rows), season.columns[2]
    return SeasonSummary(
        n_games=n,
        n_teams=len(season.teams),
        home_win_fraction=float(np.mean(margin > 0)),  # an exact count over n
        tie_fraction=float(np.mean(margin == 0)),
        games_per_team_mean=2.0 * n / len(season.teams),
    )
