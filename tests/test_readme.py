"""README's Library example runs as written, and every dotted name that
README gives for a ``seasoninfo`` module resolves."""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

from seasoninfo import SynthSpec, generate_season, season_to_csv

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _inline_code(text: str) -> list[str]:
    """Inline code spans outside fenced blocks, each on one line."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]


def _package_names() -> list[str]:
    """Backticked ``module.name`` spans whose module is neither numpy (as
    ``np``), an importable top-level module nor a file name: each names a
    ``seasoninfo`` module."""
    names = []
    for span in _inline_code(README):
        found = re.match(r"([a-z_]\w*)\.([A-Za-z_]\w*)\b", span)
        if (found and found[1] != "np" and found[2] not in {"csv", "json"}
                and importlib.util.find_spec(found[1]) is None):
            names.append(found[0])
    return names


def test_the_library_example_runs_as_written(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"^## Library\n.*?^```python\n(.*?)^```", README, flags=re.S | re.M)
    season, _ = generate_season(SynthSpec(n_teams=30, games_per_team=82, seed=5,
                                          home_adv=0.4, strength_sd=0.5))
    (tmp_path / "nba_2012.csv").write_text(season_to_csv(season), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [float(line.split()[0]) for line in lines] == [
        0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]
    for line in lines:
        _, games_per_team, mov_acc, baseline = map(float, line.split())
        assert 0 < games_per_team < 82 and 0 <= mov_acc <= 1 and 0 <= baseline <= 1


def test_every_package_name_in_the_readme_resolves():
    names = _package_names()
    assert {"harness.UNIT_BYTES", "analysis.CurveRow", "models.fit_bt_batch",
            "cli.main"} <= set(names)
    for name in names:
        module, attr = name.split(".")
        assert importlib.util.find_spec(f"seasoninfo.{module}"), f"{name}: no such module"
        assert hasattr(importlib.import_module(f"seasoninfo.{module}"), attr), name
