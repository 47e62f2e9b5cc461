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
from dataclasses import dataclass
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

    @property
    def home_win(self) -> int:
        return 1 if self.margin > 0 else 0


@dataclass(frozen=True)
class Season:
    """Validated, immutable collection of one league-year's games."""

    league: League
    season_label: str
    games: tuple[Game, ...]
    teams: frozenset[str]

    @classmethod
    def from_games(cls, league: League, season_label: str, games) -> "Season":
        games = tuple(games)
        if not games:
            raise ValueError("season has no games")
        ids = [g.game_id for g in games]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate game_id in season")
        teams = frozenset(t for g in games for t in (g.home, g.away))
        return cls(league=league, season_label=season_label, games=games, teams=teams)


@dataclass(frozen=True)
class SeasonSummary:
    n_games: int
    n_teams: int
    home_win_fraction: float
    tie_fraction: float
    games_per_team_mean: float


def encode_games(games: Sequence[Game], teams: Sequence[str]):
    """Columnar form of ``games``: home and away indices into ``teams``
    (a sorted team list) and the signed home margins."""
    index = {t: i for i, t in enumerate(teams)}
    home = np.array([index[g.home] for g in games], dtype=np.intp)
    away = np.array([index[g.away] for g in games], dtype=np.intp)
    margin = np.array([g.margin for g in games], dtype=np.int64)
    return home, away, margin


def make_game_id(index: int) -> str:
    """Sequential id assigned in row order; row 1 becomes ``g00001``."""
    return f"g{index:05d}"


def parse_season(source, league: League, season_label: str) -> Season:
    """Parse canonical CSV from bytes or a binary stream into a Season.

    Raises ParseError naming the offending 1-based line for malformed
    rows (wrong column count, bad date, non-integer score, a score above
    MAX_SCORE, home == away)
    and for files with no data rows.
    """
    if isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    else:
        raw = source.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None

    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty season: file has no rows") from None
    if tuple(header) != CSV_HEADER:
        raise ParseError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}", line=1
        )

    games = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue  # ignore a trailing blank line
        if len(row) != 5:
            raise ParseError(f"expected 5 columns, got {len(row)}", line=line_no)
        date_s, home, away, hs_s, as_s = (field.strip() for field in row)
        try:
            date = dt.date.fromisoformat(date_s)
        except ValueError:
            raise ParseError(f"bad date {date_s!r}", line=line_no) from None
        if not home or not away:
            raise ParseError("empty team id", line=line_no)
        if home == away:
            raise ParseError(f"home and away are both {home!r}", line=line_no)
        scores = []
        for s in (hs_s, as_s):
            if not (s.isascii() and s.isdigit()):
                raise ParseError(f"score {s!r} is not a non-negative integer", line=line_no)
            if len(s.lstrip("0")) > 19 or int(s) > MAX_SCORE:  # int() refuses 4,300+ digits
                raise ParseError(f"score {s[:30]} is above {MAX_SCORE}", line=line_no)
            scores.append(int(s))
        games.append(
            Game(
                game_id=make_game_id(len(games) + 1),
                date=date,
                home=home,
                away=away,
                home_score=scores[0],
                away_score=scores[1],
            )
        )

    if not games:
        raise ParseError("empty season: file has a header but no games")
    return Season.from_games(league, season_label, games)


def season_to_csv(season: Season) -> str:
    """Serialize back to canonical CSV (LF line endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for g in season.games:
        writer.writerow([g.date.isoformat(), g.home, g.away, g.home_score, g.away_score])
    return buf.getvalue()


def summarize_season(season: Season) -> SeasonSummary:
    n = len(season.games)
    wins = sum(1 for g in season.games if g.margin > 0)
    ties = sum(1 for g in season.games if g.margin == 0)
    return SeasonSummary(
        n_games=n,
        n_teams=len(season.teams),
        home_win_fraction=wins / n,
        tie_fraction=ties / n,
        games_per_team_mean=2.0 * n / len(season.teams),
    )
