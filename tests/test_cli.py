"""End-to-end tests for the command line interface."""

import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mbch
from mbch.bch import bch_recursive
from mbch.cli import entry, main
from mbch.freelie import LieSeries
from mbch.series import InexactDivision
from mbch.tilde import TildeElement, hausdorff_tilde


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_metabelian_csv_golden(capsys):
    rc, out, err = run(capsys, "metabelian", "--degree", "4", "--format", "csv")
    assert rc == 0
    assert err == ""
    assert out == "k,l,c\n0,0,1/2\n0,1,-1/12\n1,0,1/12\n1,1,-1/24\n"


def test_metabelian_text_shows_table_and_h(capsys):
    rc, out, _ = run(capsys, "metabelian", "--degree", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "X + Y + 1/2 [XY] - 1/12 [YXY] + 1/12 [X^2Y] - 1/24 [XYXY]"
    assert lines[1] == "h(x,y) = 1/2 - 1/12 y + 1/12 x - 1/24 x y"


def test_metabelian_json_has_element_and_h(capsys):
    rc, out, _ = run(capsys, "metabelian", "--degree", "5", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["element"]["X"] == "1"
    terms = {(t["k"], t["l"]): t["c"] for t in data["element"]["terms"]}
    assert terms[(0, 0)] == "1/2"
    assert terms[(1, 2)] == "1/180"
    assert {(t["i"], t["j"]) for t in data["h"]["terms"]} >= {(0, 0), (1, 1)}


def test_bch_json_roundtrip(capsys):
    rc, out, _ = run(capsys, "bch", "--degree", "6", "--format", "json")
    assert rc == 0
    assert LieSeries.from_json_dict(json.loads(out)) == bch_recursive(6)


def test_bch_methods_agree(capsys):
    outputs = []
    for method in ("recursive", "dynkin", "oracle"):
        rc, out, _ = run(capsys, "bch", "--degree", "5", "--method", method,
                         "--format", "json")
        assert rc == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_bch_csv_classical_rows(capsys):
    rc, out, _ = run(capsys, "bch", "--degree", "4", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "degree,word,c"
    assert "2,XY,1/2" in out
    assert "3,XXY,1/12" in out
    assert "4,XXYY,1/24" in out


def test_goldberg_csv_golden(capsys):
    rc, out, _ = run(capsys, "goldberg", "--degree", "4", "--format", "csv")
    assert rc == 0
    assert out == "i,j,c\n1,1,1/2\n1,2,1/12\n2,1,1/12\n2,2,1/24\n"


def test_zassenhaus_per_degree_text(capsys):
    rc, out, _ = run(capsys, "zassenhaus", "--degree", "4", "--per-degree")
    assert rc == 0
    assert out.splitlines() == [
        "C_2 = -1/2 [XY]",
        "C_3 = 1/3 [YXY] + 1/6 [X^2Y]",
        "C_4 = -1/8 [Y^2XY] - 1/8 [XYXY] - 1/24 [X^3Y]",
    ]


def test_zassenhaus_plain_equals_sum_of_factors(capsys):
    rc, table, _ = run(capsys, "zassenhaus", "--degree", "5", "--format", "csv")
    assert rc == 0
    rc, per, _ = run(capsys, "zassenhaus", "--degree", "5", "--per-degree",
                     "--format", "csv")
    assert rc == 0
    stripped = {line[2:] for line in per.splitlines()[1:]}
    assert stripped == set(table.splitlines()[1:])


def test_kv_solve_text_reports_verified(capsys):
    rc, out, _ = run(capsys, "kv-solve", "--degree", "6")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("1/4 Y + 1/12 [XY]")
    assert lines[1] == "verified: yes"


def test_kv_solve_accepts_a_and_g(capsys):
    g = json.dumps(
        {"truncation": 3,
         "terms": [{"i": 0, "j": 1, "c": "1"}, {"i": 1, "j": 0, "c": "1"}]}
    )
    rc, out, _ = run(capsys, "kv-solve", "--degree", "6", "--a", "1/3",
                     "--g", g, "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["element"]["X"] == "1/3"


def test_deeper_json_roundtrip(capsys):
    rc, out, _ = run(capsys, "deeper", "--degree", "7", "--format", "json")
    assert rc == 0
    assert TildeElement.from_json_dict(json.loads(out)) == hausdorff_tilde(7)


def test_deeper_csv_has_kind_column(capsys):
    rc, out, _ = run(capsys, "deeper", "--degree", "5", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "kind,k,l,m,n,c"
    assert "linear,,,0,0,-1/2" in lines
    assert "quadratic,0,1,0,0,1/120" in lines


def test_verify_all_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "all", "--degree", "6")
    assert rc == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_json_structure(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "kv", "--degree", "5",
                     "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        "mbch.cli.run_suite", lambda suite, degree: [("broken", False, "boom")]
    )
    rc, out, _ = run(capsys, "verify", "--degree", "4")
    assert rc == 1
    assert "FAIL broken: boom" in out


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "series.json"
    rc, out, _ = run(capsys, "bch", "--degree", "4", "--format", "json",
                     "--output", str(target))
    assert rc == 0
    assert out == ""
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["truncation"] == 4


def test_byte_identical_reruns(capsys):
    first = run(capsys, "deeper", "--degree", "6", "--format", "json")
    second = run(capsys, "deeper", "--degree", "6", "--format", "json")
    assert first == second


# Every byte of the quotient printers (text, json and csv of both element
# types, and the kv-solve report) at degree 12, pinned by sha256.
@pytest.mark.parametrize("argv, digest", [
    ("deeper --degree 12",
     "900b70c4cd1cc4d9936d8cab8cb39ff461aa6d453466d16877b050e301569f5a"),
    ("deeper --degree 12 --format json",
     "c2ed90c5bac5a6e15a736b28db6261c9f1cb62b57f37ef39969fc144ddbb5188"),
    ("deeper --degree 12 --format csv",
     "f8aea7bf106f67712d37a9e306c3ede7b5a389c4378a5123e1bfe128a01fbd06"),
    ("metabelian --degree 12",
     "60340c8a12ddbbda1e2c0d52b8786f4ee574c5f256e3a38948322823772568f7"),
    ("metabelian --degree 12 --format csv",
     "02647278b25ee68d2c4e75460f99af10e04a9701a5d1a08fc6919f52730768f0"),
    ("kv-solve --degree 12 --format json",
     "b4b617fca26431687cff4aed61fe919626641830aac592cbfbbd1643f19ce90d"),
], ids=["deeper-text", "deeper-json", "deeper-csv", "metabelian-text", "metabelian-csv",
        "kv-solve-json"])
def test_quotient_outputs_are_byte_exact(capsys, argv, digest):
    rc, out, err = run(capsys, *argv.split())
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_usage_errors_exit_2(capsys):
    cases = [
        ("bch", "--method", "closed"),
        ("bch", "--degree", "0"),
        ("bch", "--degree", "17"),
        ("bch", "--method", "dynkin", "--degree", "13"),
        ("goldberg", "--degree", "1"),
        ("kv-solve", "--degree", "4", "--a", "x"),
        ("kv-solve", "--degree", "4", "--g", "{not json"),
        ("verify", "--degree", "2"),
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == ""
        assert "error" in err


@pytest.mark.parametrize("c", ["1/0", 0.1])
def test_kv_solve_bad_g_coefficient_is_usage_error(capsys, c):
    g = json.dumps(
        {"truncation": 3,
         "terms": [{"i": 0, "j": 1, "c": c}, {"i": 1, "j": 0, "c": c}]}
    )
    rc, out, err = run(capsys, "kv-solve", "--degree", "4", "--g", g)
    assert (rc, out) == (2, "")
    assert "malformed --g" in err


@pytest.mark.parametrize("g", [
    '{"truncation": 1e400, "terms": []}',
    '{"truncation": 3, "terms": [{"i": 1e400, "j": 1, "c": "1"}]}',
    '{"truncation": 3, "terms": [{"i": 0.5, "j": 1, "c": "1"}]}',
    '{"truncation": 3, "terms": [{"i": 0, "j": 1, "c": true}]}',
], ids=["overflow-truncation", "overflow-index", "float-index", "bool-coefficient"])
def test_kv_solve_non_integer_g_field_is_usage_error(capsys, g):
    rc, out, err = run(capsys, "kv-solve", "--degree", "4", "--g", g)
    assert (rc, out) == (2, "")
    assert "malformed --g" in err


@pytest.mark.parametrize("g", [
    '{"truncation": 3, "terms": [{"i": 3, "j": 1, "c": "1"}]}',
    "[" * 50000 + "]" * 50000,
], ids=["term-beyond-truncation", "deep-nesting"])
def test_kv_solve_contradictory_or_deep_g_is_usage_error(capsys, g):
    rc, out, err = run(capsys, "kv-solve", "--degree", "4", "--g", g)
    assert (rc, out) == (2, "")
    assert "malformed --g" in err


@pytest.mark.parametrize("argv", [
    ("--a", "1e100000000"),
    ("--g", json.dumps({"truncation": 3, "terms": [
        {"i": 0, "j": 1, "c": "1e100000000"}, {"i": 1, "j": 0, "c": "1e100000000"}]})),
    ("--a", "1 /2"),
    ("--a", "1_000"),
], ids=["a-exponent", "g-exponent", "a-space", "a-underscore"])
def test_kv_solve_rational_outside_the_grammar_is_usage_error(capsys, argv):
    # Fraction would expand 1e100000000 in full; the grammar refuses it at once.
    rc, out, err = run(capsys, "kv-solve", "--degree", "4", *argv)
    assert (rc, out) == (2, "")
    assert "error" in err


def test_kv_solve_negative_a_needs_the_equals_form(capsys):
    rc, out, _ = run(capsys, "kv-solve", "--degree", "4", "--a=-113/3")
    assert rc == 0
    assert out.startswith("-113/3 X + 1/4 Y")
    rc, out, err = run(capsys, "kv-solve", "--degree", "4", "--a", "-113/3")
    assert (rc, out) == (2, "")
    assert "expected one argument" in err


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    rc, out, err = run(capsys, "bch", "--degree", "3", "--output", str(target))
    assert (rc, out) == (2, "")
    assert str(target) in err


def test_antisymmetry_violation_is_usage_error(capsys):
    g = json.dumps({"truncation": 2, "terms": [{"i": 0, "j": 1, "c": "1"}]})
    rc, _, err = run(capsys, "kv-solve", "--degree", "4", "--g", g)
    assert rc == 2
    assert "antisymmetry" in err


def test_unknown_flag_and_missing_command(capsys):
    rc, _, _ = run(capsys, "bch", "--nope")
    assert rc == 2
    rc, _, _ = run(capsys)
    assert rc == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_env_var_overrides_cap(capsys, monkeypatch):
    monkeypatch.setenv("MBCH_DEGREE_CAP", "5")
    rc, _, err = run(capsys, "bch", "--degree", "6")
    assert rc == 2
    assert "cap 5" in err
    monkeypatch.setenv("MBCH_DEGREE_CAP", "junk")
    rc, _, err = run(capsys, "bch", "--degree", "6")
    assert rc == 2
    assert "MBCH_DEGREE_CAP" in err
    # A cap below 1 is malformed too, not a cap every degree exceeds.
    for cap in ("-5", "0"):
        monkeypatch.setenv("MBCH_DEGREE_CAP", cap)
        rc, out, err = run(capsys, "bch", "--degree", "3")
        assert (rc, out) == (2, "")
        assert f"invalid MBCH_DEGREE_CAP: '{cap}'" in err


def test_inexact_division_exits_3(capsys, monkeypatch):
    def boom(truncation):
        raise InexactDivision("inexact division")

    monkeypatch.setattr("mbch.cli.hausdorff_closed", boom)
    rc, out, err = run(capsys, "metabelian", "--degree", "4")
    assert rc == 3
    assert out == ""
    assert "divisibility" in err


def test_python_m_mbch_cli_matches_entry(capsys, monkeypatch):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = ["bch", "--degree", "5"]
    proc = subprocess.run(
        [sys.executable, "-m", "mbch.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    monkeypatch.setattr(sys, "argv", ["mbch", *args])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize(
    "module",
    ["mbch"] + [f"mbch.{m.name}" for m in pkgutil.iter_modules(mbch.__path__)],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


# ---------------------------------------------------------------------------
# Fuzzing: every argv and --g JSON ends in a documented exit code
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_INDEX = st.integers(-2, 8) | st.sampled_from([10**30, 0.5, 1e400, True, "1", None])
# Text that Fraction reads on some Python version but the rational
# grammar refuses; an exponent would be expanded in full, so exponents
# are their own branch and drawn as often as the other kinds together.
_OFF_GRAMMAR = st.sampled_from(["1e100000000", "7E99999999", "1.5e3"]) | st.sampled_from(
    ["1_000", "1 / 2", " 3"]
)
_COEFFICIENT = (
    st.fractions(max_denominator=50).map(str)
    | st.integers()
    | st.sampled_from(["1/0", "x", "", 0.1, True, None, []])
    | _OFF_GRAMMAR
)
_SERIES = st.fixed_dictionaries({
    "truncation": _INDEX,
    "terms": st.lists(
        st.fixed_dictionaries({"i": _INDEX, "j": _INDEX, "c": _COEFFICIENT}),
        max_size=4,
    ),
})
_G = st.just("zero") | _SERIES.map(json.dumps) | _JSON.map(json.dumps) | st.text(max_size=12)
_TOKEN = st.text(max_size=6)
_COMMANDS = {
    "bch": [("--method", st.sampled_from(["recursive", "dynkin", "oracle", "closed"]))],
    "metabelian": [],
    "goldberg": [],
    "zassenhaus": [("--per-degree", st.none())],
    "kv-solve": [
        ("--a", st.fractions(max_denominator=20).map(str) | _TOKEN | _OFF_GRAMMAR),
        ("--g", _G),
    ],
    "deeper": [],
    "verify": [
        ("--suite", st.sampled_from(["all", "bch", "metabelian", "zassenhaus", "kv", "deeper"]))
    ],
}
# Every flag with free-form values, for any subcommand: argparse's own
# rejections are fuzzed too.
_ANY_OPTION = [
    ("--degree", _TOKEN),
    ("--format", _TOKEN),
    ("--method", _TOKEN),
    ("--suite", _TOKEN),
    ("--a", _TOKEN),
    ("--g", _G),
    ("--per-degree", st.none()),
]


@st.composite
def _options(draw, options):
    argv = []
    for flag, value in options:
        if draw(st.booleans()):
            v = draw(value)
            if v is None:
                argv.append(flag)
            elif draw(st.booleans()):
                argv.append(f"{flag}={v}")
            else:
                argv += [flag, v]
    return argv


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    if draw(st.integers(0, 3)):
        degree = str(draw(st.sampled_from(range(8))))
        options = [("--format", st.sampled_from(["json", "csv", "text"]))] + _COMMANDS[command]
        return [command, "--degree", degree, *draw(_options(options))]
    words = [command if draw(st.booleans()) else draw(_TOKEN)]
    return words + draw(_options(_ANY_OPTION)) + draw(st.lists(_TOKEN, max_size=2))


# The environment variable is set once for every example, so sharing the
# function-scoped monkeypatch across them is safe.
@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_argv())
def test_cli_fuzz_exits_with_a_documented_code(monkeypatch, argv):
    monkeypatch.setenv("MBCH_DEGREE_CAP", "6")
    assert main(argv) in (0, 1, 2, 3)
