"""Every name that a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

import ellstab

SOURCES = sorted(Path(ellstab.__file__).parent.glob("*.py"))

#: names imported only so that perfbench/inprocess.py can wrap or read them there
PINNED = {
    ("galois_image", "trace_census_table"),
    ("sieve_stats", "trace_census_table"),
    ("__init__", "CurveModel"),
}


def unread_imports(source: str) -> list[str]:
    """The names that the import statements of source bind and no expression of it reads."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_unread_imports_finds_a_name_bound_and_never_read():
    source = "import os\nimport numpy as np\nfrom math import isqrt, gcd\nx = np.zeros(isqrt(4))\n"
    assert unread_imports(source) == ["gcd", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_each_module_reads_every_name_it_imports(path):
    unread = [name for name in unread_imports(path.read_text()) if (path.stem, name) not in PINNED]
    assert unread == []
