"""Tests for the two free Lie algebra constructions of log(e^X e^Y)."""

import functools
from fractions import Fraction as F
from math import factorial

import pytest

from mbch.assoc import bch_log_oracle
from mbch.bch import bch_dynkin, bch_recursive, bch_recursive_steps, hausdorff_h1
from mbch.freelie import (
    LieSeries,
    bracket,
    is_lyndon,
    long_commutator,
    standard_bracketing,
    to_assoc,
)
from mbch.verify import check_bch, run_suite


# ---------------------------------------------------------------------------
# hausdorff_h1
# ---------------------------------------------------------------------------

def test_h1_degree_two():
    # B_1 [YX] / 1! = -(1/2)[YX] = +(1/2)[XY]
    s = hausdorff_h1(2)
    assert s == LieSeries(2, {"X": F(1), "XY": F(1, 2)})


def test_h1_degree_three():
    # B_2 / 2! = (1/6) / 2 = 1/12 on [Y^2 X] = [XYY] in the Lyndon basis
    s = hausdorff_h1(3)
    assert s == LieSeries(3, {
        "X": F(1),
        "XY": F(1, 2),
        "XYY": F(1, 12),
    })


def test_h1_degree_four_term_vanishes():
    # B_3 = 0, so nothing of degree 4 shows up
    assert hausdorff_h1(4).degree_part(4).is_zero()


def test_h1_rejects_bad_truncation():
    with pytest.raises(ValueError, match="truncation"):
        hausdorff_h1(0)


# ---------------------------------------------------------------------------
# bch_recursive: classical low degrees
# ---------------------------------------------------------------------------

def test_recursive_classical_display():
    assert bch_recursive(4) == LieSeries(4, {
        "X": F(1),
        "Y": F(1),
        "XY": F(1, 2),
        # ([X^2 Y] - [YXY]) / 12: both brackets rewrite into the Lyndon pair
        "XXY": F(1, 12),
        "XYY": F(1, 12),
        # -[XYXY]/24 = +(1/24) [X,[[X,Y],Y]]
        "XXYY": F(1, 24),
    })


def test_recursive_steps_grade_in_x():
    # H_m carries degree exactly m in X; Lyndon words make the count visible.
    steps = list(bch_recursive_steps(6))
    assert steps[0] == LieSeries(6, {"Y": F(1)})
    for m, h in enumerate(steps):
        for word, _ in h.items():
            assert type(word) is str and word.count("X") == m


def test_check_bch_grading_fails_on_mixed_x_degree(monkeypatch):
    # H_1 with a term of X-degree 2 mixed in must fail the grading check,
    # and only that check, naming the step and the word.
    def mixed_steps(truncation):
        yield {"Y": F(1)}
        yield {"XY": F(1), "XXY": F(1)}

    monkeypatch.setattr("mbch.verify.bch_recursive_steps", mixed_steps)
    checks = check_bch(5)
    results = {name: passed for name, passed, _ in checks}
    assert results.pop("degree components are homogeneous") is False
    assert all(results.values()) and len(results) == 3
    assert checks[3] == (
        "degree components are homogeneous", False, "step 1: XXY has degree 2 in X"
    )


def test_check_bch_names_the_first_differing_word(monkeypatch):
    # A perturbed coordinate of the tuple sum is named with both values;
    # the passing checks keep an empty detail.
    def perturbed(truncation):
        return bch_dynkin(truncation) + LieSeries(truncation, {"XXYY": 1, "XXXYY": 1})

    monkeypatch.setattr("mbch.verify.bch_dynkin", perturbed)
    details = {name: (passed, detail) for name, passed, detail in check_bch(5)}
    assert details.pop("recursion equals tuple sum through degree 5") == (
        False, "differs at XXYY: 1/24 != 25/24"
    )
    assert all(d == (True, "") for d in details.values())


def test_recursive_sum_matches_steps():
    total = {}
    for h in bch_recursive_steps(5):
        for w, c in h.items():
            total[w] = total.get(w, 0) + c
    assert LieSeries(5, total) == bch_recursive(5)


@pytest.mark.parametrize("suite, degree, hits", [("all", 9, 3), ("bch", 10, 1)])
def test_verify_runs_the_free_recursion_once_per_degree(suite, degree, hits):
    # The bch, metabelian and deeper suites sum the steps, and the grading
    # check reads them: one computation, every later call a cache hit.
    bch_recursive_steps.cache_clear()
    assert all(passed for _, passed, _ in run_suite(suite, degree))
    info = bch_recursive_steps.cache_info()
    assert (info.misses, info.hits) == (1, hits)


@pytest.mark.parametrize("suite, degree, hits", [("all", 9, 2), ("bch", 10, 1)])
def test_verify_computes_the_word_series_once_per_degree(suite, degree, hits):
    # check_bch reads the word series, and bch_dynkin brackets the same
    # cached series; the metabelian suite reads it at the same degree.
    bch_log_oracle.cache_clear()
    assert all(passed for _, passed, _ in run_suite(suite, degree))
    info = bch_log_oracle.cache_info()
    assert (info.misses, info.hits) == (1, hits)


def _tree_degree(t):
    return 1 if isinstance(t, str) else _tree_degree(t[0]) + _tree_degree(t[1])


def _lie(trees, n):
    """A combination of bracket trees as a series cut at n, each [A,B] by
    ``bracket``."""

    def build(t):
        if isinstance(t, str):
            return LieSeries.generator(t, n)
        return bracket(build(t[0]), build(t[1]))

    out = LieSeries.zero(n)
    for t, c in trees.items():
        out = out + c * build(t)
    return out


def _tree_route(n):
    """Reference recursion: the Leibniz rule on bracket trees, memoized per
    tree; after every step the trees enter the element through ``bracket``,
    which writes them in the Lyndon basis, each P_w as its standard
    bracketing."""
    image = {standard_bracketing(w): c for w, c in hausdorff_h1(n).items()}

    @functools.cache
    def derive(t):
        if t == "X":
            return {}
        if t == "Y":
            return image
        a, b = t
        out = {}
        for ta, ca in derive(a).items():
            if ta != b and _tree_degree(ta) + _tree_degree(b) <= n:
                out[ta, b] = out.get((ta, b), 0) + ca
        for tb, cb in derive(b).items():
            if a != tb and _tree_degree(a) + _tree_degree(tb) <= n:
                out[a, tb] = out.get((a, tb), 0) + cb
        return out

    h = total = LieSeries.generator("Y", n)
    for m in range(1, n + 1):
        out = {}
        for w, c in h.items():
            for rt, rc in derive(standard_bracketing(w)).items():
                out[rt] = out.get(rt, 0) + c * rc
        h = F(1, m) * _lie(out, n)
        total = total + h
    return total


@pytest.mark.parametrize("n", range(1, 11))
def test_recursive_term_dict_matches_tree_route(n):
    # The recursion on the Lyndon basis gives the coordinates of the
    # Leibniz rule on bracket trees.
    assert bch_recursive(n) == _tree_route(n)


# ---------------------------------------------------------------------------
# bch_dynkin
# ---------------------------------------------------------------------------

def test_dynkin_degree_one():
    h = bch_dynkin(1)
    assert h == LieSeries(1, {"X": F(1), "Y": F(1)})


def test_dynkin_degree_two_by_hand():
    # Nonzero degree-2 tuples: (1,1) gives [XY]/2, (1,0,0,1) gives
    # -(1/2)[XY]/2 and (0,1,1,0) gives -(1/2)[YX]/2 = +[XY]/4; every
    # other tuple hits [XX] or [YY].  Net: 1/2 - 1/4 + 1/4 = 1/2.
    h = bch_dynkin(2)
    assert h.degree_part(2) == LieSeries(2, {"XY": F(1, 2)})


def test_dynkin_rejects_bad_truncation():
    with pytest.raises(ValueError, match="truncation"):
        bch_dynkin(0)


def _dynkin_by_tuples(truncation):
    """Term dict of the tuple sum, visiting every block tuple one at a time."""
    totals = {}

    def extend(word, degree, m, denom):
        if m:
            c = F(1 if m % 2 else -1, m * degree * denom)
            totals[word] = totals.get(word, F(0)) + c
        for size in range(1, truncation - degree + 1):
            for p in range(size + 1):
                q = size - p
                extend(word + "X" * p + "Y" * q, degree + size, m + 1,
                       denom * factorial(p) * factorial(q))

    extend("", 0, 0, 1)
    terms = {}
    for word, c in totals.items():
        for t, tc in long_commutator(word, truncation).items():
            terms[t] = terms.get(t, F(0)) + c * tc
    return {t: c for t, c in terms.items() if c}


@pytest.mark.parametrize("n", range(1, 8))
def test_dynkin_bracketing_equals_tuple_enumeration(n):
    # Dynkin's bracketing of the word series against the tuple sum, one
    # block tuple at a time, each chain through ``long_commutator``.
    assert dict(bch_dynkin(n).items()) == _dynkin_by_tuples(n)


# ---------------------------------------------------------------------------
# Cross-checks
# ---------------------------------------------------------------------------

def test_triple_agreement_degree_six():
    n = 6
    rec = bch_recursive(n)
    dyn = bch_dynkin(n)
    assert rec == dyn
    oracle = bch_log_oracle(n)
    assert to_assoc(rec) == oracle
    assert to_assoc(dyn) == oracle


def test_recursive_is_graded():
    # Keyed by Lyndon word, and written in order of degree, then word.
    h = bch_recursive(8)
    words = [w for w, _ in h.items()]
    assert all(is_lyndon(w) for w in words)
    written = [t["word"] for t in h.to_json_dict()["terms"]]
    assert written == sorted(words, key=lambda w: (len(w), w))
