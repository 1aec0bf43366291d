"""numpy loads with one OpenBLAS thread under ellstab, and no ellstab code needs more.

Each spare OpenBLAS worker spins on a core of every short CLI process, so
ellstab/__init__.py imports numpy with OPENBLAS_NUM_THREADS=1 unless the
user set the variable, and removes it again afterwards.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellstab

SRC = Path(ellstab.__file__).resolve().parent
TASKS = Path("/proc/self/task")
PROBE = ("import os, ellstab.cli; "
         "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")

#: the numpy calls that reach BLAS
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def import_in_child(openblas_threads: str | None) -> tuple[int, str]:
    """(native threads, OPENBLAS_NUM_THREADS) after `import ellstab.cli` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    threads, value = proc.stdout.split()
    return int(threads), value


@pytest.mark.skipif(not TASKS.is_dir(), reason="no /proc/self/task to count threads")
@pytest.mark.parametrize("user_value, threads, left", [(None, 1, "None"), ("2", 2, "2")],
                         ids=["unset", "user-2"])
def test_import_starts_no_blas_worker_unless_the_user_asks(user_value, threads, left):
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS starts at most one thread per CPU")
    # unset: the variable is gone again, so a child process of the user inherits nothing
    assert import_in_child(user_value) == (threads, left)


def blas_uses(path: Path) -> list[str]:
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append(f"{path.name}:{node.lineno} @")
        name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                else node.name.split(".")[-1] if isinstance(node, ast.alias) else None)
        if name in BLAS_NAMES:
            uses.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    return uses


def test_no_package_code_calls_blas():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [use for path in files for use in blas_uses(path)] == []


def test_the_blas_guard_sees_each_form(tmp_path):
    source = tmp_path / "calls.py"
    source.write_text("import numpy.linalg\nfrom numpy import einsum\nc = a @ b\nc @= a\n"
                      "d = np.dot(a, b)\ne = inner(a, b)\n")
    found = sorted(use.split(" ")[1] for use in blas_uses(source))
    assert found == ["@", "@", "dot", "einsum", "inner", "linalg"]
