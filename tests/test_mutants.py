"""Every second route can fail: each mutant of ``mutants.py`` is killed.

The runner copies ``src/`` into a temporary directory, applies one
mutant there and runs ``python -m mbch.cli verify`` on the copy, so the
tree under test is never written to.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src"


def _verify(src: Path, suite: str, degree: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "mbch.cli", "verify", "--suite", suite, "--degree", str(degree)],
        capture_output=True,
        text=True,
        cwd=src.parent,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )


def _copy(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def test_each_mutant_names_one_place():
    # Checked apart from the runs, so a strict xfail cannot hide a stale row.
    for m in MUTANTS:
        assert (SRC / "mbch" / m.file).read_text().count(m.old) == 1, m.name


@pytest.mark.parametrize("suite, degree", sorted({(m.suite, m.degree) for m in MUTANTS}))
def test_the_unmutated_copy_passes(tmp_path, suite, degree):
    proc = _verify(_copy(tmp_path), suite, degree)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize(
    "mutant",
    [
        pytest.param(m, marks=pytest.mark.xfail(strict=True, reason=m.survives))
        if m.survives else m
        for m in MUTANTS
    ],
    ids=[m.name for m in MUTANTS],
)
def test_the_named_row_kills_the_mutant(tmp_path, mutant):
    target = _copy(tmp_path) / "mbch" / mutant.file
    target.write_text(target.read_text().replace(mutant.old, mutant.new))
    proc = _verify(target.parents[1], mutant.suite, mutant.degree)
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    assert (proc.returncode, proc.stderr) == (1, "")
    assert any(line[len("FAIL "):].startswith(mutant.row) for line in fails), fails
