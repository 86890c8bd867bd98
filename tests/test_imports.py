"""Every module of the package reads each name it imports, so a deletion
cannot leave its imports behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lqg_codesign"

#: Imports no code of their module reads, kept because benchmark/tracer.py
#: wraps the attribute each binds on its module.
KEPT_FOR_TRACER = {
    ("cli", "pbh_check"),  # tracer target ("cli", "pbh_check")
    ("cost", "solve_lyapunov"),  # tracer target ("cost", "solve_lyapunov")
    ("simulate", "phi"),  # tracer target ("simulate", "phi")
}


def unread_imports(path: Path) -> set[str]:
    """The names ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_read(path):
    kept = {name for module, name in KEPT_FOR_TRACER if module == path.stem}
    assert unread_imports(path) == kept


def test_the_scan_finds_an_unread_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import scipy.linalg as sla\n"
        "from .errors import CodesignError, NotAnEquilibrium\n"
        "def f(x: np.ndarray) -> float:\n"
        "    raise CodesignError(sla.norm(x))\n"
    )
    assert unread_imports(module) == {"NotAnEquilibrium"}
