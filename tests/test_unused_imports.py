"""Every module-level import of the package is used in the module that makes it.

A name counts as used when the module's code reads it: as a bare name, or
as the head of an attribute chain such as ``np.array``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "shellact"

#: (module, name) imported only to be reached through that module: bench/run.py
#: wraps ``rig.write_measurements_csv``, the name the generate subcommand calls.
KEPT_FOR_OTHERS = {("rig", "write_measurements_csv")}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.stem}:{line} imports {name!r}" for name, line in bound.items()
            if name not in read and (path.stem, name) not in KEPT_FOR_OTHERS]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from __future__ import annotations\nimport os.path\nimport sys\n"
                      "from math import pi, tau\n\nprint(sys.argv, tau)\n")
    assert unused_imports(module) == ["mod:2 imports 'os'", "mod:4 imports 'pi'"]
