"""The shipped docs and demos: every demo script runs, and the README lists the public names."""

import importlib
import re
import subprocess
import sys

import pytest

import coinwalk
from conftest import ROOT, src_env


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_modules_table_lists_each_modules_public_names():
    # Rows read "| `coinwalk.<module>` | `name`, `name` (comment), ... |"; every
    # backquoted word of the second cell must be a public name of that module.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(coinwalk\.\w+)` \| (.*) \|$", readme, flags=re.MULTILINE)
    listed = {}
    for module, cell in rows:
        names = re.findall(r"`([^`]*)`", cell)
        assert sorted(names) == sorted(importlib.import_module(module).__all__), module
        listed[module] = names
    every = [name for names in listed.values() for name in names]
    assert sorted(every) == sorted(set(coinwalk.__all__) - {"__version__"})
