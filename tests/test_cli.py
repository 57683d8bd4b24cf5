"""End-to-end tests for the command line interface."""

import doctest
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
from mbch.metabelian import goldberg_c, hausdorff_closed, kv_solve, zassenhaus_closed
from mbch.series import BiSeries, InexactDivision
from mbch.tilde import hausdorff_tilde


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


# Every command whose result is one container: the library call it prints
# and the field that rides along in its JSON, with a test of the field's
# value against that result.
_ONE_CONTAINER = {
    "bch": (bch_recursive, None),
    "goldberg": (goldberg_c, None),
    "zassenhaus": (zassenhaus_closed, None),
    "deeper": (hausdorff_tilde, None),
    "metabelian": (
        hausdorff_closed, ("h", lambda e, v: BiSeries.from_json_dict(v) == e.table)
    ),
    "kv-solve": (kv_solve, ("verified", lambda e, v: v is True)),
}


@pytest.mark.parametrize("command", list(_ONE_CONTAINER))
def test_json_output_reads_back(capsys, command):
    library, field = _ONE_CONTAINER[command]
    rc, out, err = run(capsys, command, "--degree", "7", "--format", "json")
    assert (rc, err) == (0, "")
    data = json.loads(out)
    want = library(7)
    if field:
        key, check = field
        assert list(data) == ["element", key]
        assert check(want, data[key])
        data = data["element"]
    assert type(want).from_json_dict(data) == want


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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", list(_ONE_CONTAINER))
def test_output_flag_writes_file(capsys, tmp_path, command, fmt):
    argv = (command, "--degree", "5", "--format", fmt)
    rc, stdout, _ = run(capsys, *argv)
    assert rc == 0
    target = tmp_path / f"out.{fmt}"
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == stdout.encode()
    assert stdout.endswith("\n")


def test_byte_identical_reruns(capsys):
    first = run(capsys, "deeper", "--degree", "6", "--format", "json")
    second = run(capsys, "deeper", "--degree", "6", "--format", "json")
    assert first == second


# Every byte of the quotient printers (text, json and csv of both element
# types, of the goldberg series and of the zassenhaus factors, whole and per
# degree, the kv-solve report and the kv suite's report) at degree 12, and
# of the free-Lie printer (text, json and csv of one series, reached by all
# three methods) at degree 9, pinned by sha256; so are the three verify
# reports the benchmark runs, whose check names it pins too, and the
# benchmark's other jobs but goldberg-64 (its degree-12 bytes are pinned
# above) and the seeded kv-solve-64, which the benchmark checks by content.
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
    ("bch --degree 9",
     "ad0074aaec32430453c9489b9de61e24d3cd81b690cc93423a303422a2c42bea"),
    ("bch --degree 9 --format json",
     "44902edc2fc2d6ecf329c17ca32894ff9c8662f23d9d12a95b59a3ad598808d2"),
    ("bch --degree 9 --format csv",
     "4036fdc80f5f730fd89257af8861bedf88ad28e8f2a15a41e43a12f6adf43973"),
    ("bch --method oracle --degree 9",
     "ad0074aaec32430453c9489b9de61e24d3cd81b690cc93423a303422a2c42bea"),
    ("bch --method dynkin --degree 9",
     "ad0074aaec32430453c9489b9de61e24d3cd81b690cc93423a303422a2c42bea"),
    ("metabelian --degree 12 --format json",
     "441e798b4b0c29bb2cd8f4d7980439497257de4fd79abaaa91177e78bbebec1f"),
    ("goldberg --degree 12",
     "3cf8b9bf46676f1026b47ea9506fa4f0f157e24384e030c6ee412be6376e5132"),
    ("goldberg --degree 12 --format json",
     "40ac04ecc178a39792c71d3ec22e6108aef6ebcc0e744c7e46049cd70545e2da"),
    ("goldberg --degree 12 --format csv",
     "9a6b371b9eac237b957d6aba8c91abf09dffbb40de3bf9d72b2cda9196954037"),
    ("zassenhaus --degree 12",
     "ea214a4071a520049e29038b2bda06303c22362344aff65d557f5a80c8b968de"),
    ("zassenhaus --degree 12 --format json",
     "9b7fefc654aacb8573ea65faebc235d209b9e7897985c24fe9f3a5e889d679cc"),
    ("zassenhaus --degree 12 --format csv",
     "b9386be45a2bd4cffdd0cfcccc98853604821ba7b36f51b87b30274799ed0cac"),
    ("zassenhaus --degree 12 --per-degree",
     "610d16e267fe5a85cee186ca0a38dfbe8b3e640d310efd3102f9673f8b91c9d0"),
    ("zassenhaus --degree 12 --per-degree --format json",
     "a2b193cfc25b201343e3bc9ca4acaf0d8c0ac024e9ff9dcec945802594af0dc2"),
    ("zassenhaus --degree 12 --per-degree --format csv",
     "45313a2d8abedb65eedcec072a6032c06954575fa35585285b9a8d4d1ba02d68"),
    ("kv-solve --degree 12",
     "d5836b1c43795c2e49ff99d7b19148050a2a535ae39136265b53a9e2cd016653"),
    ("kv-solve --degree 12 --format csv",
     "1366105b98876c0fff0644bd437bb9b6e80c472f5568e25309e0f14b03a3f174"),
    ("verify --suite kv --degree 12 --format json",
     "083c57fdd27f84d4a1973e639c3ac46ec1069e504da3007f84e0052b8ae1c3cb"),
    ("verify --suite kv --degree 12 --format csv",
     "af9e9b8bbd3de13dfe91d2a7df37d3b9eb7b38831ba435bda083a8cb9484c278"),
    ("verify --degree 9",
     "c9d1a518f496ebe5cbb8b519fa72636c51d4d9e4c7b8d70123e83f898c1c162b"),
    ("verify --suite deeper --degree 11",
     "302a28ee8eb29190ad936981cd73ca8be0d66a54a01ca07620cac8e583c4a0f6"),
    ("verify --suite bch --degree 10",
     "9bef7bd1359aabbf7db057d8be5aedc7540563c01dfc4c85a4812e90aac5711b"),
    ("bch --method recursive --degree 13",
     "a308d8ae493f1897c4204a785e4e75e6d06506221b7c52a7702f2a2e04db41fc"),
    ("bch --method oracle --degree 12",
     "02ce9dabbf361557538d2f1d5839b0234ed7c540b1004fdcf65e08b7b9fb51c7"),
    ("bch --method dynkin --degree 10",
     "523de48a2caffe07eea5cedcd140bcb8151e98566c8fbe6386a212d916f16f6e"),
    ("metabelian --degree 64 --format json",
     "bab55a1fbf66bceeb7250d2304e4c134b80a737a69a768e91d50944772304111"),
    ("zassenhaus --degree 64 --per-degree",
     "b7063ef9b7b83a9af8c3b2022e483613340c381d284c89887c53dbb61df29992"),
    ("deeper --degree 18 --format csv",
     "2751c5347a7b861b7a7bcda9c151ceefb4fab617c91c867e2b0dddd077b26a3a"),
], ids=["deeper-text", "deeper-json", "deeper-csv", "metabelian-text",
        "metabelian-csv", "kv-solve-json", "bch-text", "bch-json", "bch-csv",
        "bch-oracle-text", "bch-dynkin-text", "metabelian-json", "goldberg-text",
        "goldberg-json", "goldberg-csv", "zassenhaus-text", "zassenhaus-json",
        "zassenhaus-csv", "zassenhaus-per-degree-text", "zassenhaus-per-degree-json",
        "zassenhaus-per-degree-csv", "kv-solve-text", "kv-solve-csv", "verify-kv-json",
        "verify-kv-csv", "verify-all-9", "verify-deeper-11", "verify-bch-10",
        "bch-recursive-13", "bch-oracle-12", "bch-dynkin-10", "metabelian-64-json",
        "zassenhaus-64-per-degree", "deeper-18-csv"])
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
    '{"truncation": 3, "terms": [{"i": 0, "j": 1, "c": "2"}, {"i": 0, "j": 1, "c": "1"},'
    ' {"i": 1, "j": 0, "c": "1"}]}',
], ids=["term-beyond-truncation", "deep-nesting", "repeated-term"])
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_unwritable_stdout_is_usage_error():
    # A full device: the write fails, one line reaches stderr, and the
    # interpreter's own flush at exit finds nothing left to fail on.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "mbch.cli", "goldberg", "--degree", "4"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr == "mbch: error: cannot write stdout: No space left on device\n"


def test_antisymmetry_violation_is_usage_error(capsys):
    g = json.dumps({"truncation": 2, "terms": [{"i": 0, "j": 1, "c": "1"}]})
    rc, _, err = run(capsys, "kv-solve", "--degree", "4", "--g", g)
    assert rc == 2
    assert "antisymmetry" in err


def test_antisymmetry_check_of_a_high_power_is_cheap(capsys):
    # g = x^(10^6): checking g(-y,-x) = -g costs one term, not 10^6 powers.
    g = json.dumps({"truncation": 10**6, "terms": [{"i": 10**6, "j": 0, "c": "1"}]})
    rc, out, err = run(capsys, "kv-solve", "--degree", "4", "--g", g)
    assert (rc, out) == (2, "")
    assert "g violates antisymmetry" in err


def test_unknown_flag_and_missing_command(capsys):
    rc, _, _ = run(capsys, "bch", "--nope")
    assert rc == 2
    rc, _, _ = run(capsys)
    assert rc == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize("argv, low, cap", [
    (("bch",), 1, 16),
    (("bch", "--method", "recursive"), 1, 16),
    (("bch", "--method", "dynkin"), 1, 12),
    (("bch", "--method", "oracle"), 1, 14),
    (("metabelian",), 2, 64),
    (("goldberg",), 2, 64),
    (("zassenhaus",), 2, 64),
    (("kv-solve",), 2, 64),
    (("deeper",), 2, 20),
    (("verify",), 4, 12),
], ids=["bch", "bch-recursive", "bch-dynkin", "bch-oracle", "metabelian",
        "goldberg", "zassenhaus", "kv-solve", "deeper", "verify"])
def test_every_command_refuses_degrees_outside_its_bounds(capsys, monkeypatch,
                                                         argv, low, cap):
    monkeypatch.delenv("MBCH_DEGREE_CAP", raising=False)
    rc, out, err = run(capsys, *argv, "--degree", str(low - 1))
    assert (rc, out) == (2, "")
    assert f"degree must be at least {low} for {argv[0]}" in err
    rc, out, err = run(capsys, *argv, "--degree", str(cap + 1))
    assert (rc, out) == (2, "")
    assert f"exceeds the cap {cap} for this command" in err


_OWN_FLAGS = {
    "bch": ["[--method {recursive,dynkin,oracle}]"],
    "metabelian": [],
    "goldberg": [],
    "zassenhaus": ["[--per-degree]"],
    "kv-solve": ["[--a A]", "[--g G]"],
    "deeper": [],
    "verify": ["[--suite {all,bch,metabelian,zassenhaus,kv,deeper}]"],
}


_SHARED_HELP = {
    "[--degree DEGREE]": "truncation degree (default 8)",
    "[--format {json,csv,text}]": "output format (default text)",
    "[--output OUTPUT]": "write to this file instead of stdout",
}


@pytest.mark.parametrize("command", sorted(_OWN_FLAGS))
def test_subcommand_help_names_its_own_flags(capsys, command):
    rc, out, err = run(capsys, command, "--help")
    assert (rc, err) == (0, "")
    assert out.startswith(f"usage: mbch {command} [-h]")
    for flags in _OWN_FLAGS.values():
        for flag in flags:
            assert (flag in out) == (flag in _OWN_FLAGS[command]), flag
    # The usage line, however it wraps: the row's own flags, then the
    # shared ones in their declared order.
    usage = " ".join(out.split("\n\n")[0].split())
    expected = ["[-h]", *_OWN_FLAGS[command], *_SHARED_HELP]
    positions = [usage.find(flag) for flag in expected]
    assert -1 not in positions and positions == sorted(positions), usage
    words = " ".join(out.split())
    for help_line in _SHARED_HELP.values():
        assert help_line in words


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


def test_benchmark_smoke_check_passes():
    # The benchmark wraps methods by name on their classes and checks
    # every job against its golden digest; a refactor breaks either here.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        capture_output=True,
        text=True,
        cwd=root,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


@pytest.mark.parametrize(
    "module",
    ["mbch"] + [f"mbch.{m.name}" for m in pkgutil.iter_modules(mbch.__path__)],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_the_package_reexports_each_modules_names_once():
    # Each module's ``__all__`` is the one list of its public names.
    modules = ["series", "assoc", "freelie", "bch", "metabelian", "tilde", "verify"]
    joined = [name for m in modules for name in importlib.import_module(f"mbch.{m}").__all__]
    assert mbch.__all__ == [*joined, "main"]
    assert len(set(mbch.__all__)) == len(mbch.__all__)


def test_readme_library_example_runs():
    # The ``>>>`` block after "A small taste of the library API", as README
    # has it; the block ends at its closing fence.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("```python\n", readme.index("A small taste of the library API"))
    start += len("```python\n")
    block = readme[start:readme.index("```", start)]
    test = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
    assert test.examples
    result = doctest.DocTestRunner().run(test)
    assert (result.failed, result.attempted) == (0, len(test.examples))


def test_runtime_imports_only_the_standard_library():
    # In a fresh interpreter, so that what site-packages imports at start-up
    # is already loaded and does not count.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import mbch, mbch.cli\n"
        "for m in pkgutil.iter_modules(mbch.__path__):\n"
        "    importlib.import_module('mbch.' + m.name)\n"
        "top = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(top - {'mbch'} - set(sys.stdlib_module_names)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


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
