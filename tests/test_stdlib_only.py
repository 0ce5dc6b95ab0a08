"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qident").glob("*.py"))


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert any(path.name == "cli.py" for path in SOURCES)


def test_runtime_is_stdlib_only():
    allowed = set(sys.stdlib_module_names) | {"qident"}
    for path in SOURCES:
        for name in _absolute_imports(path):
            assert name.partition(".")[0] in allowed, f"{path.name} imports {name}"
