"""The demos run and import from the top level only what it exports; every other public name
of the package has a caller in the program."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geomoment

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ("src", "demos", "scripts", "bench")  # the trees whose code counts as a caller
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK = [p for p in DEMOS if p.name[:2] in ("01", "02", "03", "04")]


def test_all_demos_found():
    assert len(DEMOS) == 7 and len(QUICK) == 4


@pytest.mark.parametrize("demo", QUICK, ids=lambda p: p.stem)
def test_quick_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")  # the suite's pin does not reach children
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_top_level_imports_are_exported(demo):
    tree = ast.parse(demo.read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "geomoment"
        for alias in node.names
    }
    assert imported <= set(geomoment.__all__)


def test_every_public_name_that_is_not_exported_has_a_caller():
    # a caller is a Name or Attribute node in the program: tests, imports and strings do not count
    referenced = set()
    for path in (p for tree in PROGRAM for p in sorted((ROOT / tree).rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = [
        f"{path.stem}.{node.name}"
        for path in sorted((ROOT / "src" / "geomoment").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in geomoment.__all__
        and node.name not in referenced
    ]
    assert uncalled == []
