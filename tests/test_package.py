"""Package-wide properties: runtime checks that survive ``python -O`` and
import-time cost.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import stokesafem

PKG = Path(stokesafem.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # ``assert`` vanishes under ``python -O``; invariants must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PKG.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in stokesafem: {found}"


def test_sympy_is_imported_only_for_manufactured_problems():
    code = ("import sys, stokesafem; stokesafem.get_problem('lshape-smoothf'); "
            "print('sympy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
