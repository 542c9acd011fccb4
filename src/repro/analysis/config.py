"""File discovery for `repro analyze`, driven by ``pyproject.toml``.

The ``[tool.repro.analyze]`` table decides what a bare ``repro
analyze`` scans, so benchmarks/ and examples/ opt out by simply not
being included::

    [tool.repro.analyze]
    include = ["src/repro"]
    exclude = ["src/repro/_vendor/*"]
    baseline = "analysis-baseline.json"

``include`` entries are directories (scanned recursively for ``*.py``),
files, or glob patterns relative to the project root; ``exclude``
entries are fnmatch patterns applied to root-relative posix paths.
The table is parsed with the standard library's :mod:`tomllib`, so the
analyzer has zero third-party dependencies.
"""

from __future__ import annotations

import fnmatch
import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

__all__ = ["AnalyzeConfig", "load_config", "discover_files"]

DEFAULT_INCLUDE = ("src/repro",)


@dataclass
class AnalyzeConfig:
    """Parsed ``[tool.repro.analyze]`` table (all fields optional)."""

    include: tuple[str, ...] = DEFAULT_INCLUDE
    exclude: tuple[str, ...] = ()
    baseline: Optional[str] = None


def load_config(root: Path) -> AnalyzeConfig:
    """Read the analyze table from ``<root>/pyproject.toml`` if present."""
    pyproject = Path(root) / "pyproject.toml"
    if not pyproject.is_file():
        return AnalyzeConfig()
    text = pyproject.read_text(encoding="utf-8")
    table = _read_table(text, "tool.repro.analyze")
    if not table:
        return AnalyzeConfig()
    config = AnalyzeConfig()
    include = table.get("include")
    if isinstance(include, list) and include:
        config.include = tuple(str(p) for p in include)
    exclude = table.get("exclude")
    if isinstance(exclude, list):
        config.exclude = tuple(str(p) for p in exclude)
    baseline = table.get("baseline")
    if isinstance(baseline, str) and baseline:
        config.baseline = baseline
    return config


def _read_table(text: str, name: str) -> dict:
    """Parse one TOML table (empty if absent or the file is not TOML)."""
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError:
        return {}
    node = data
    for part in name.split("."):
        if not isinstance(node, dict) or part not in node:
            return {}
        node = node[part]
    return node if isinstance(node, dict) else {}


def discover_files(
    root: Path,
    config: AnalyzeConfig,
    paths: Optional[Sequence[str]] = None,
) -> list[Path]:
    """Resolve the set of ``*.py`` files to analyze.

    Explicit *paths* (CLI positionals) override ``include``; the
    ``exclude`` patterns apply either way.
    """
    root = Path(root).resolve()
    roots: Iterable[str] = paths if paths else config.include
    selected: set[Path] = set()
    for entry in roots:
        path = Path(entry)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            selected.update(path.rglob("*.py"))
        elif path.is_file():
            selected.add(path)
        else:
            selected.update(
                p for p in root.glob(str(entry)) if p.suffix == ".py"
            )
    kept = []
    for path in selected:
        try:
            rel = path.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        if any(fnmatch.fnmatch(rel, pat) for pat in config.exclude):
            continue
        kept.append(path)
    return sorted(kept)
