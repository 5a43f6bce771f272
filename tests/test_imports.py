"""The link path's modules reach each other through public names only.

``link``, ``sync`` and ``io_formats`` each own a stage of the link; a module
that imports a private name from one of them runs code the owner may change
without notice, and that the layer tracer does not see. Importing a private
module (``from . import _kernels``) stays allowed.
"""

import ast
from pathlib import Path

import pytest

import chaoslink

PACKAGE = Path(chaoslink.__file__).resolve().parent
OWNERS = ("link", "sync", "io_formats")


def private_imports(path):
    """``owner.name`` for each private name ``path`` imports from an owner,
    at module level or inside a function, relatively or by package name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            owner = node.module
        elif node.level == 0 and node.module.startswith("chaoslink."):
            owner = node.module.removeprefix("chaoslink.")
        else:
            continue
        if owner in OWNERS:
            found += [f"{owner}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_name_imported_from_the_link_path(path):
    assert private_imports(path) == []


def test_the_walk_finds_what_it_must_refuse(tmp_path):
    """Each spelling of a private import is found, and a private module is not."""
    path = tmp_path / "module.py"
    path.write_text(
        "from . import _kernels\n"
        "from .link import MaskedSeries, _gather\n"
        "from chaoslink.sync import _run\n"
        "from .core_map import _as_state\n"
        "def f():\n"
        "    from .io_formats import _write_binary\n"
    )
    assert private_imports(path) == ["link._gather", "sync._run", "io_formats._write_binary"]
