"""The link path's bit-identity promises, held across commits.

Each case of ``scripts/golden.py`` is recomputed here and its SHA-256
compared with ``tests/golden.json``, which only that script writes. A
digest that moves is an output that changed: a perf or refactor change
must move none, and a change that moves one on purpose rewrites the table
with the script and names the digest and why.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

TABLE = json.loads(golden.TABLE.read_text())


def test_table_names_every_case():
    assert set(TABLE["digests"]) == set(golden.CASES)


@pytest.mark.parametrize("name", list(golden.CASES))
def test_digest(name):
    promise, compute = golden.CASES[name]
    written = {key: TABLE[key] for key in ("numpy", "scipy")}
    assert compute() == TABLE["digests"][name]["sha256"], (
        f"{name} moved: {promise}; table written with {written}, running {golden.versions()}"
    )
