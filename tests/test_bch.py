"""Tests for the two free Lie algebra constructions of log(e^X e^Y)."""

import functools
from fractions import Fraction as F
from math import factorial

import pytest

from mbch.assoc import bch_log_oracle
from mbch.bch import bch_dynkin, bch_recursive, bch_recursive_steps, hausdorff_h1
from mbch.freelie import (
    LieElement,
    LieSeries,
    from_lyndon_coords,
    long_commutator,
    right_normed,
    to_assoc,
    to_lyndon_coords,
    tree_degree,
    tree_word,
)
from mbch.verify import check_bch


# ---------------------------------------------------------------------------
# hausdorff_h1
# ---------------------------------------------------------------------------

def test_h1_degree_two():
    # B_1 [YX] / 1! = -(1/2)[YX] = +(1/2)[XY]
    s = hausdorff_h1(2)
    assert to_lyndon_coords(s.as_element()) == {"X": F(1), "XY": F(1, 2)}


def test_h1_degree_three():
    # B_2 / 2! = (1/6) / 2 = 1/12 on [Y^2 X] = [XYY] in the Lyndon basis
    s = hausdorff_h1(3)
    assert to_lyndon_coords(s.as_element()) == {
        "X": F(1),
        "XY": F(1, 2),
        "XYY": F(1, 12),
    }


def test_h1_degree_four_term_vanishes():
    # B_3 = 0, so nothing of degree 4 shows up
    assert hausdorff_h1(4).part(4).is_zero()


def test_h1_rejects_bad_truncation():
    with pytest.raises(ValueError, match="truncation"):
        hausdorff_h1(0)


# ---------------------------------------------------------------------------
# bch_recursive: classical low degrees
# ---------------------------------------------------------------------------

def test_recursive_classical_display():
    h = bch_recursive(4)
    assert to_lyndon_coords(h.part(1)) == {"X": F(1), "Y": F(1)}
    assert to_lyndon_coords(h.part(2)) == {"XY": F(1, 2)}
    # ([X^2 Y] - [YXY]) / 12: both brackets rewrite into the Lyndon pair
    assert to_lyndon_coords(h.part(3)) == {"XXY": F(1, 12), "XYY": F(1, 12)}
    # -[XYXY]/24 = +(1/24) [X,[[X,Y],Y]]
    assert to_lyndon_coords(h.part(4)) == {"XXYY": F(1, 24)}


def test_recursive_steps_grade_in_x():
    # H_m carries degree exactly m in X; chains make the count visible.
    steps = list(bch_recursive_steps(6))
    assert steps[0] == from_lyndon_coords({"Y": F(1)})
    for m, h in enumerate(steps):
        for t, _ in right_normed(h).terms():
            word = tree_word(t)
            assert word is not None and word.count("X") == m


def test_check_bch_grading_fails_on_mixed_x_degree(monkeypatch):
    # H_1 with a chain of X-degree 2 mixed in must fail the grading check,
    # and only that check.
    def mixed_steps(truncation):
        yield LieElement.generator("Y")
        yield long_commutator("XY") + long_commutator("XXY")

    monkeypatch.setattr("mbch.verify.bch_recursive_steps", mixed_steps)
    results = {name: passed for name, passed, _ in check_bch(5)}
    assert results.pop("degree components are homogeneous") is False
    assert all(results.values()) and len(results) == 3


def test_recursive_sum_matches_steps():
    total = sum(
        (LieSeries.from_element(h, 5) for h in bch_recursive_steps(5)),
        LieSeries.zero(5),
    )
    assert total == bch_recursive(5)


def _tree_route(n):
    """Reference recursion: the Leibniz rule on bracket trees, memoized per
    tree, then ``right_normed`` after every step."""
    image = {t: c for t, c in hausdorff_h1(n).items()}

    @functools.cache
    def derive(t):
        if t == "X":
            return {}
        if t == "Y":
            return image
        a, b = t
        out = {}
        for ta, ca in derive(a).items():
            if ta != b and tree_degree(ta) + tree_degree(b) <= n:
                out[ta, b] = out.get((ta, b), 0) + ca
        for tb, cb in derive(b).items():
            if a != tb and tree_degree(a) + tree_degree(tb) <= n:
                out[a, tb] = out.get((a, tb), 0) + cb
        return out

    h = total = LieElement.generator("Y")
    for m in range(1, n + 1):
        out = {}
        for t, c in h.term_dict().items():
            for rt, rc in derive(t).items():
                out[rt] = out.get(rt, 0) + c * rc
        h = F(1, m) * right_normed(LieElement(out))
        total = total + h
    return LieSeries.from_element(total, n)


@pytest.mark.parametrize("n", range(1, 11))
def test_recursive_term_dict_matches_tree_route(n):
    # The same chain terms, not only the same coordinates: equal pairs
    # [A,A] are skipped exactly where the tree-level rule skipped them.
    assert dict(bch_recursive(n).items()) == dict(_tree_route(n).items())


# ---------------------------------------------------------------------------
# bch_dynkin
# ---------------------------------------------------------------------------

def test_dynkin_degree_one():
    h = bch_dynkin(1)
    assert to_lyndon_coords(h.as_element()) == {"X": F(1), "Y": F(1)}


def test_dynkin_degree_two_by_hand():
    # Nonzero degree-2 tuples: (1,1) gives [XY]/2, (1,0,0,1) gives
    # -(1/2)[XY]/2 and (0,1,1,0) gives -(1/2)[YX]/2 = +[XY]/4; every
    # other tuple hits [XX] or [YY].  Net: 1/2 - 1/4 + 1/4 = 1/2.
    h = bch_dynkin(2)
    assert to_lyndon_coords(h.part(2)) == {"XY": F(1, 2)}


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
        for t, tc in long_commutator(word).term_dict().items():
            terms[t] = terms.get(t, F(0)) + c * tc
    return {t: c for t, c in terms.items() if c}


@pytest.mark.parametrize("n", range(1, 8))
def test_dynkin_word_dp_equals_tuple_enumeration(n):
    assert bch_dynkin(n).as_element().term_dict() == _dynkin_by_tuples(n)


# ---------------------------------------------------------------------------
# Cross-checks
# ---------------------------------------------------------------------------

def test_triple_agreement_degree_six():
    n = 6
    rec = bch_recursive(n)
    dyn = bch_dynkin(n)
    assert rec == dyn
    oracle = bch_log_oracle(n)
    assert to_assoc(rec, n) == oracle
    assert to_assoc(dyn, n) == oracle


def test_recursive_is_graded():
    h = bch_recursive(5)
    for d, e in h.parts():
        for t, _ in e.terms():
            from mbch.freelie import tree_degree

            assert tree_degree(t) == d
