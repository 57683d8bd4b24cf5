"""Tests for the quotient by [L', [L', L']]."""

from fractions import Fraction as F
from math import factorial

import pytest

from mbch.assoc import bch_log_oracle
from mbch.bch import bch_recursive, bch_recursive_steps, hausdorff_h1
from mbch.freelie import (
    Derivation,
    LieSeries,
    bracket,
    ideal_membership,
    long_commutator,
    to_assoc,
)
from mbch.metabelian import hausdorff_closed, project
from mbch.series import bernoulli
from mbch.tilde import (
    TildeElement,
    expand_to_free,
    hausdorff_tilde,
    tilde_act,
    tilde_dy,
)
from mbch.verify import check_deeper


def _coords(e) -> dict:
    """Lyndon coordinates of a series."""
    return dict(e.items())


# ---------------------------------------------------------------------------
# TildeElement and normalization
# ---------------------------------------------------------------------------

def test_normalize_orders_pairs():
    e = TildeElement(8, quadratic={((0, 0), (1, 0)): F(1)})
    assert e.quadratic.coefficient((1, 0), (0, 0)) == -1
    assert e.quadratic.coefficient((0, 0), (1, 0)) == 1
    assert [k for k, _ in e.quadratic.terms()] == [((1, 0), (0, 0))]


def test_normalize_kills_equal_pairs():
    assert TildeElement(10, quadratic={((1, 2), (1, 2)): F(5)}).is_zero()


def test_normalize_keeps_ordered_pairs():
    e = TildeElement(16, quadratic={((2, 0), (1, 5)): F(3)})
    assert e.quadratic.coefficient((2, 0), (1, 5)) == 3


def test_normalize_merges_mirrored_keys():
    e = TildeElement(
        8, quadratic={((0, 0), (1, 0)): F(2), ((1, 0), (0, 0)): F(5)}
    )
    assert e.quadratic.coefficient((1, 0), (0, 0)) == 3


def test_element_truncation_drops():
    e = TildeElement(4, linear={(1, 1): F(1), (4, 4): F(1)})
    assert e.linear.coefficient(1, 1) == 1
    with pytest.raises(ValueError, match="beyond truncation"):
        e.linear.coefficient(4, 4)


def test_tables_below_their_degree_know_no_coefficient():
    e = TildeElement(1, 2, -1, {(0, 0): F(5)}, {((1, 0), (0, 0)): F(1)})
    assert (e.a, e.b, e.linear.truncation, e.quadratic.truncation) == (2, -1, -1, -1)
    with pytest.raises(ValueError, match="beyond truncation"):
        e.linear.coefficient(0, 0)
    with pytest.raises(ValueError, match="beyond truncation"):
        TildeElement(3).quadratic.coefficient((1, 0), (0, 0))
    assert e + e == 2 * e == TildeElement(1, 4, -2)
    assert e.degree_part(2).is_zero() and str(-e) == "-2 X + Y"
    assert tilde_act("X", e) == TildeElement(1) and tilde_dy(e).truncation == 1


def test_element_degree_part_and_algebra():
    e = TildeElement(
        7,
        1,
        2,
        linear={(0, 0): F(1, 2), (1, 2): F(3)},
        quadratic={((1, 0), (0, 0)): F(-1)},
    )
    assert str(e.degree_part(1)) == "X + 2 Y"
    # [{1,0},{0,0}] and {1,2} both live in degree 5
    d5 = e.degree_part(5)
    assert d5.quadratic.coefficient((1, 0), (0, 0)) == -1
    assert d5.linear.coefficient(1, 2) == 3
    assert d5.linear.coefficient(0, 0) == 0
    assert (e - e).is_zero()
    assert (F(2) * e).linear.coefficient(1, 2) == 6


def test_element_json_roundtrip():
    e = hausdorff_tilde(7)
    assert TildeElement.from_json_dict(e.to_json_dict()) == e


def test_element_str():
    e = TildeElement(8, 1, 0, {(0, 1): F(-1, 3)}, {((1, 0), (0, 0)): F(1)})
    assert str(e) == "X - 1/3 {0,1} + [{1,0},{0,0}]"


# ---------------------------------------------------------------------------
# Letter actions
# ---------------------------------------------------------------------------

def test_act_x_on_linear():
    e = TildeElement(9, linear={(2, 3): F(1)})
    assert tilde_act("X", e).linear.coefficient(3, 3) == 1


def test_act_y_base_case():
    e = TildeElement(9, linear={(0, 3): F(1)})
    r = tilde_act("Y", e)
    assert r.linear.coefficient(0, 4) == 1
    assert r.quadratic.is_zero()


def test_act_y_on_m_one_bracket_vanishes():
    # y {1,0} = {1,1} + [{0,0},{0,0}] and the bracket term is zero
    r = tilde_act("Y", TildeElement(6, linear={(1, 0): F(1)}))
    assert r.linear.coefficient(1, 1) == 1
    assert r.quadratic.is_zero()


def test_act_y_binomial_corrections():
    # y {2,0} = {2,1} + 2 [{0,0},{1,0}] + [{1,0},{0,0}] = {2,1} - [{1,0},{0,0}]
    r = tilde_act("Y", TildeElement(8, linear={(2, 0): F(1)}))
    assert r.linear.coefficient(2, 1) == 1
    assert dict(r.quadratic.items()) == {((1, 0), (0, 0)): F(-1)}


def test_act_exactness_through_degree_six():
    y = LieSeries.generator("Y", 8)
    for m in range(5):
        for n in range(5 - m):
            if m + n + 2 > 6:
                continue
            e = TildeElement(8, linear={(m, n): F(1)})
            lhs = expand_to_free(tilde_act("Y", e))
            rhs = bracket(y, expand_to_free(e))
            assert _coords(lhs) == _coords(rhs), (m, n)


def test_act_rejects_bad_generator():
    with pytest.raises(ValueError, match="generator"):
        tilde_act("Z", TildeElement.zero(4))


# ---------------------------------------------------------------------------
# The derivation
# ---------------------------------------------------------------------------

def test_dy_of_y_low_degrees():
    d = tilde_dy(TildeElement(3, 0, 1))
    assert d.a == 1 and d.b == 0
    assert d.linear.coefficient(0, 0) == F(-1, 2)
    assert d.linear.coefficient(0, 1) == F(1, 12)


def test_dy_of_x_is_zero():
    assert tilde_dy(TildeElement(5, 1, 0)).is_zero()


def test_dy_of_m_zero_terms():
    # D {m,0} = -sum (B_l / l!) {m+1, l-1}
    d = tilde_dy(TildeElement(8, linear={(2, 0): F(1)}))
    assert d.quadratic.is_zero()
    for l in range(1, 5):
        b = bernoulli(l)
        assert d.linear.coefficient(3, l - 1) == -b / factorial(l)


def test_dy_exactness_through_degree_six():
    n_work = 8
    h1 = hausdorff_h1(n_work)
    for m in range(5):
        for n in range(5 - m):
            if m + n + 2 > 6:
                continue
            e = TildeElement(n_work, linear={(m, n): F(1)})
            lhs = expand_to_free(tilde_dy(e))
            rhs = Derivation(None, h1, n_work)(expand_to_free(e))
            assert _coords(lhs) == _coords(rhs), (m, n)


def test_actions_on_pairs_agree_with_the_free_algebra_through_degree_9():
    # Every pair [{k,l},{m,n}] of degree <= 9: ad X, ad Y and D computed in
    # the quotient differ from the free-algebra action by an element of
    # the deeper ideal, degree by degree.
    n_work = 10
    h1 = hausdorff_h1(n_work)
    letters = {g: LieSeries.generator(g, n_work) for g in "XY"}
    indices = [(k, l) for k in range(6) for l in range(6 - k)]
    pairs = [(u, v) for u in indices for v in indices if u > v and sum(u) + sum(v) <= 5]
    assert len(pairs) == 60
    nonzero = {"X": 0, "Y": 0, "D": 0}
    for u, v in pairs:
        e = TildeElement(n_work, quadratic={(u, v): F(1)})
        free = expand_to_free(e)
        deviations = {
            g: expand_to_free(tilde_act(g, e)) - bracket(letters[g], free) for g in "XY"
        }
        deviations["D"] = (
            expand_to_free(tilde_dy(e)) - Derivation(None, h1, n_work)(free)
        )
        for name, diff in deviations.items():
            for d in range(1, n_work + 1):
                assert ideal_membership(diff.degree_part(d), "deeper"), (name, u, v, d)
            nonzero[name] += bool(_coords(diff))
    # Not vacuous: the quotient drops terms that the free algebra keeps.
    assert nonzero["Y"] and nonzero["D"]


def _explicit_dy_linear(m, n, truncation):
    """D {m,n} straight from the explicit formulas of the module docstring,
    every letter of x^m y^k applied afresh: a reference that shares no
    memo with the recursion in ``tilde``."""

    def tail(first):
        return {
            (first, l - 1): bernoulli(l) / factorial(l)
            for l in range(1, truncation - first)
            if bernoulli(l)
        }

    if n == 0:
        return F(-1) * TildeElement(truncation, linear=tail(m + 1))
    t = TildeElement(truncation, linear=tail(1))
    for _ in range(n):
        t = tilde_act("Y", t)
    acc = F(-1) * t
    for k in range(n):
        s = n - k - 1
        quad = {(u, (0, s)): c for u, c in tail(0).items()}
        piece = TildeElement(truncation, linear={(1, s): 1}, quadratic=quad)
        for _ in range(k):
            piece = tilde_act("Y", piece)
        acc = acc + piece
    for _ in range(m):
        acc = tilde_act("X", acc)
    return acc


def test_dy_recursion_equals_explicit_formula_through_degree_14():
    n_work = 14
    for m in range(n_work - 1):
        for n in range(n_work - 1 - m):
            e = TildeElement(n_work, linear={(m, n): F(1)})
            assert tilde_dy(e) == _explicit_dy_linear(m, n, n_work), (m, n)


def test_to_assoc_project_and_tilde_dy_keep_the_operand_truncation():
    # Each reads its truncation off the operand: a series known through
    # degree 3 determines its image only through degree 3.
    h = bch_recursive(3)
    assert to_assoc(h).truncation == 3
    assert to_assoc(h) == bch_log_oracle(3)
    assert project(h).truncation == 3
    assert project(h) == hausdorff_closed(3)
    assert tilde_dy(TildeElement(3, 0, 1)).truncation == 3
    assert project(h.truncate(2)) == hausdorff_closed(2)

# ---------------------------------------------------------------------------
# The full series
# ---------------------------------------------------------------------------

def test_hausdorff_tilde_linear_part_is_minus_h():
    t = hausdorff_tilde(7)
    assert t.a == 1 and t.b == 1
    assert t.linear.coefficient(0, 0) == F(-1, 2)
    assert t.linear.coefficient(1, 0) == F(-1, 12)
    assert t.linear.coefficient(0, 1) == F(1, 12)
    for (k, l), c in hausdorff_closed(7).table.items():
        assert t.linear.coefficient(k, l) == -c


def test_hausdorff_tilde_matches_free_series_low_degree():
    for n in range(1, 7):
        lhs = _coords(expand_to_free(hausdorff_tilde(n)))
        rhs = _coords(bch_recursive(n))
        assert lhs == rhs, n


def test_check_deeper_names_the_first_word_outside_the_ideal(monkeypatch):
    def perturbed(n):
        return hausdorff_tilde(n) + TildeElement(n, linear={(3, 3): 1, (2, 3): F(-2, 3)})

    monkeypatch.setattr("mbch.verify.hausdorff_tilde", perturbed)
    name, passed, detail = check_deeper(8)[3]
    assert name == "deviation lies in the ideal through degree 8"
    assert (passed, detail) == (False, "outside the ideal at XXXYYYY: -2/3")


def test_check_deeper_names_the_first_differing_chain_and_word(monkeypatch):
    # D {1,2} gains 1/7 {2,2} = -1/7 P_XXXYYY in the quotient only.
    def perturbed(e):
        out = tilde_dy(e)
        if e.linear.coefficient(1, 2):
            out = out + TildeElement(e.truncation, linear={(2, 2): F(1, 7)})
        return out

    monkeypatch.setattr("mbch.verify.tilde_dy", perturbed)
    checks = check_deeper(8)
    assert checks[0] == ("letter action exact through degree 6", True, "")
    assert checks[1] == (
        "derivation formulas exact through degree 6",
        False,
        "{1,2}: differs at XXXYYY: -9/14 != -1/2",
    )


def test_hausdorff_tilde_deviation_lies_in_ideal():
    n = 7
    diff = expand_to_free(hausdorff_tilde(n)) - bch_recursive(n)
    for d in range(1, n + 1):
        assert ideal_membership(diff.degree_part(d), "deeper"), d
    # the degree-7 deviation is genuinely nonzero: quotient and free
    # algebra part ways exactly where brackets of brackets of brackets
    # first fit
    assert _coords(diff.degree_part(7))


def test_second_piece_matches_classical_recursion():
    # The first iterated piece is (1/2) sum (B_k/k!) D {0,k-1}, which is
    # the degree-2-in-X slice of the classical recursion, here through
    # degree 7.
    n = 7
    from mbch.tilde import _dy_linear

    h = TildeElement.zero(n)
    for k in range(1, n):
        c = bernoulli(k)
        if c:
            h = h + (c / factorial(k)) * _dy_linear(0, k - 1, n)
    piece = expand_to_free(F(1, 2) * h)
    h2 = list(bch_recursive_steps(n))[2]
    assert _coords(piece) == _coords(h2)


def test_projection_forgets_quadratic_part():
    for n in range(1, 9):
        e = project(expand_to_free(hausdorff_tilde(n)))
        assert e == hausdorff_closed(n)


# ---------------------------------------------------------------------------
# expand_to_free
# ---------------------------------------------------------------------------

def test_expand_base_cases():
    e = TildeElement(4, linear={(0, 0): F(1)})
    assert _coords(expand_to_free(e)) == {"XY": F(-1)}  # {0,0} = [YX]
    e = TildeElement(4, 2, -3)
    assert _coords(expand_to_free(e)) == {"X": F(2), "Y": F(-3)}


def test_expand_projects_to_negative_table_entry():
    for k in range(3):
        for l in range(3):
            e = TildeElement(8, linear={(k, l): F(1)})
            p = project(expand_to_free(e))
            assert dict(p.table.items()) == {(k, l): F(-1)}


def test_expand_equal_pair_is_zero():
    e = TildeElement(8, quadratic={((0, 0), (0, 0)): F(1)})
    assert expand_to_free(e).is_zero()
