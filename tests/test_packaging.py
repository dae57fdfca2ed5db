"""pyproject.toml declares every third-party module the code imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CODE_DIRS = ("src", "tests", "perfbench")


def module_level_imports(path: Path) -> set[str]:
    """Top-level package names of the absolute imports in `path`'s module body."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")   # standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    project = project["project"]
    requirements = project["dependencies"] + [
        req for reqs in project["optional-dependencies"].values() for req in reqs]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    files = [f for d in CODE_DIRS for f in sorted((ROOT / d).rglob("*.py"))]
    local = {"dimasr"} | {f.stem for f in files}
    undeclared = {
        f"{f.relative_to(ROOT)}: {name}" for f in files
        for name in module_level_imports(f) - local - set(sys.stdlib_module_names)
        if name.lower() not in declared}
    assert not undeclared, sorted(undeclared)
