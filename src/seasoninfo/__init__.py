"""Quantify how information about relative team strength accrues over a
sports season, via paired-comparison models fit to random subsets of the
schedule and scored out of sample."""

__version__ = "0.1.0"

from .analysis import (
    BreakpointFit,
    CurveRow,
    SummaryReport,
    constrained_slope,
    fit_breakpoint,
    informativeness_ratio,
    odds_ratio,
    summarize_league,
)
from .errors import ConfigError, FitError, ParseError, SeasonInfoError
from .harness import (
    CurvePoint,
    ProtocolConfig,
    Split,
    home_baseline,
    make_split,
    run_protocol,
)
from .ingest import (
    Game,
    League,
    Season,
    SeasonSummary,
    parse_season,
    season_to_csv,
    summarize_season,
)
from .models import (
    BtFit,
    MovFit,
    fit_bt,
    fit_mov,
    info_metric,
    predict_bt,
    predict_mov,
)
from .synth import SynthSpec, SynthTruth, bayes_accuracy, generate_season

__all__ = [
    "BreakpointFit",
    "BtFit",
    "ConfigError",
    "CurvePoint",
    "CurveRow",
    "FitError",
    "Game",
    "League",
    "MovFit",
    "ParseError",
    "ProtocolConfig",
    "Season",
    "SeasonInfoError",
    "SeasonSummary",
    "Split",
    "SummaryReport",
    "SynthSpec",
    "SynthTruth",
    "bayes_accuracy",
    "constrained_slope",
    "fit_breakpoint",
    "fit_bt",
    "fit_mov",
    "generate_season",
    "home_baseline",
    "info_metric",
    "informativeness_ratio",
    "make_split",
    "odds_ratio",
    "parse_season",
    "predict_bt",
    "predict_mov",
    "run_protocol",
    "season_to_csv",
    "summarize_league",
    "summarize_season",
]
