"""pyproject-driven file discovery: parsing and include/exclude."""

from __future__ import annotations

from repro.analysis.config import AnalyzeConfig, discover_files, load_config

PYPROJECT = """\
[project]
name = "demo"

[tool.repro.analyze]
include = ["pkg"]
exclude = ["pkg/vendored/*"]
baseline = "base.json"

[tool.other]
include = ["nope"]
"""


class TestLoadConfig:
    def test_reads_analyze_table(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(PYPROJECT)
        config = load_config(tmp_path)
        assert config.include == ("pkg",)
        assert config.exclude == ("pkg/vendored/*",)
        assert config.baseline == "base.json"

    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(tmp_path)
        assert config.include == ("src/repro",)
        assert config.exclude == ()
        assert config.baseline is None

    def test_defaults_without_analyze_table(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text('[project]\nname = "x"\n')
        assert load_config(tmp_path).include == ("src/repro",)

    def test_repo_pyproject_parses(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        config = load_config(root)
        assert config.include == ("src/repro",)
        assert config.baseline == "analysis-baseline.json"


class TestDiscoverFiles:
    def _tree(self, tmp_path):
        for rel in (
            "pkg/a.py",
            "pkg/sub/b.py",
            "pkg/vendored/c.py",
            "other/d.py",
            "pkg/notes.txt",
        ):
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("x = 1\n")
        return tmp_path

    def test_include_dir_recurses_and_exclude_applies(self, tmp_path):
        root = self._tree(tmp_path)
        config = AnalyzeConfig(
            include=("pkg",), exclude=("pkg/vendored/*",)
        )
        rels = [
            p.relative_to(root).as_posix()
            for p in discover_files(root, config)
        ]
        assert rels == ["pkg/a.py", "pkg/sub/b.py"]

    def test_explicit_paths_override_include(self, tmp_path):
        root = self._tree(tmp_path)
        config = AnalyzeConfig(include=("pkg",))
        rels = [
            p.relative_to(root).as_posix()
            for p in discover_files(root, config, paths=["other"])
        ]
        assert rels == ["other/d.py"]

    def test_exclude_still_applies_to_explicit_paths(self, tmp_path):
        root = self._tree(tmp_path)
        config = AnalyzeConfig(
            include=("other",), exclude=("pkg/vendored/*",)
        )
        rels = [
            p.relative_to(root).as_posix()
            for p in discover_files(root, config, paths=["pkg"])
        ]
        assert "pkg/vendored/c.py" not in rels
        assert "pkg/a.py" in rels

    def test_glob_include(self, tmp_path):
        root = self._tree(tmp_path)
        config = AnalyzeConfig(include=("pkg/*.py",))
        rels = [
            p.relative_to(root).as_posix()
            for p in discover_files(root, config)
        ]
        assert rels == ["pkg/a.py"]
