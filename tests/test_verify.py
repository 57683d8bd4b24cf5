"""The verify runner: one guard around every row, one path for every suite."""

import csv
import io
import json

import pytest

from mbch import verify
from mbch.cli import main
from mbch.series import InexactDivision
from mbch.verify import SUITES, check_zassenhaus, run_suite


def _raising(exc):
    def broken(truncation):
        raise exc

    return broken


def test_a_raising_row_fails_and_the_next_row_still_runs(monkeypatch):
    monkeypatch.setattr(
        "mbch.verify.zassenhaus_oracle", _raising(ValueError("not a Lie element"))
    )
    assert check_zassenhaus(6) == [
        ("per-degree terms match stripping through degree 6", False,
         "raised ValueError: not a Lie element"),
        ("sum equals projected log residual through degree 6", True, ""),
    ]


def _verify_zassenhaus_6(capsys, fmt):
    rc = main(["verify", "--suite", "zassenhaus", "--degree", "6", "--format", fmt])
    captured = capsys.readouterr()
    assert captured.err == ""
    return rc, captured.out


def test_a_raising_row_is_a_fail_line_in_every_format(monkeypatch, capsys):
    monkeypatch.setattr(
        "mbch.verify.zassenhaus_oracle", _raising(ValueError("not a Lie element"))
    )
    detail = "raised ValueError: not a Lie element"

    rc, out = _verify_zassenhaus_6(capsys, "text")
    assert rc == 1
    assert out.splitlines() == [
        f"FAIL per-degree terms match stripping through degree 6: {detail}",
        "PASS sum equals projected log residual through degree 6",
        "1 of 2 checks passed",
    ]

    rc, out = _verify_zassenhaus_6(capsys, "json")
    assert rc == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert [(c["passed"], c["detail"]) for c in data["checks"]] == [(False, detail), (True, "")]

    rc, out = _verify_zassenhaus_6(capsys, "csv")
    assert rc == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["result"], r["detail"]) for r in rows] == [("fail", detail), ("pass", "")]


def test_an_inexact_division_in_a_row_exits_1_not_3(monkeypatch, capsys):
    monkeypatch.setattr(
        "mbch.verify.zassenhaus_oracle", _raising(InexactDivision("remainder at (2,3)"))
    )
    rc, out = _verify_zassenhaus_6(capsys, "text")
    assert rc == 1
    assert out.splitlines()[0].endswith(": raised InexactDivision: remainder at (2,3)")
    assert out.splitlines()[-1] == "1 of 2 checks passed"


@pytest.mark.parametrize("exc", [MemoryError, KeyboardInterrupt])
def test_memory_error_and_interrupt_propagate(monkeypatch, exc):
    monkeypatch.setattr("mbch.verify.zassenhaus_oracle", _raising(exc()))
    with pytest.raises(exc):
        run_suite("zassenhaus", 6)


@pytest.mark.parametrize("degree", [4, 9])
def test_all_is_the_single_suites_prefixed(degree):
    expected = [
        (f"{suite}: {name}", passed, detail)
        for suite in SUITES
        for name, passed, detail in run_suite(suite, degree)
    ]
    assert run_suite("all", degree) == expected


def test_suites_bind_the_module_check_functions():
    # The benchmark's tracer wraps each check by its module-level name
    # and finds the same object in SUITES.
    for name, fn in SUITES.items():
        assert fn is getattr(verify, f"check_{name}")
