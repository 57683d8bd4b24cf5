"""Tests for the quotient modulo brackets of brackets."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

from mbch.assoc import bch_log_oracle, zassenhaus_oracle, nc_exp, nc_log, NCSeries
from mbch.bch import bch_recursive
from mbch.freelie import (
    LieSeries,
    bracket,
    ideal_membership,
    long_commutator,
    lyndon_coords_of_assoc,
    lyndon_words,
    standard_factorization,
    to_assoc,
    to_lyndon_coords,
)
from mbch.freelie import _IDEALS, _ideal_level
from mbch.metabelian import (
    MetabelianElement,
    goldberg_c,
    h_series,
    hausdorff_closed,
    kv_solve,
    kv_verify,
    project,
    zassenhaus_closed,
)
from mbch.series import BiSeries, bernoulli
from mbch.verify import check_kv, check_metabelian, run_suite
from rank_reference import ideal_spanning_coords, ideal_spanning_elements, span_rank


# The truncation of the free elements built here: above every degree a
# test builds (random chains reach 12), so no term is cut.
N = 12
X = LieSeries.generator("X", N)
Y = LieSeries.generator("Y", N)


# ---------------------------------------------------------------------------
# MetabelianElement basics
# ---------------------------------------------------------------------------

def test_element_construction_and_access():
    e = MetabelianElement(6, 1, -2, {(0, 0): F(1, 2), (3, 3): F(1)})
    assert e.a == 1 and e.b == -2
    assert e.table.coefficient(0, 0) == F(1, 2)
    # (3,3) has degree 8 > 6 and is dropped on construction
    assert e.table == BiSeries(4, {(0, 0): F(1, 2)})
    with pytest.raises(ValueError, match="beyond truncation"):
        e.table.coefficient(4, 4)
    with pytest.raises(ValueError, match="negative"):
        MetabelianElement(4, table={(-1, 0): F(1)})
    with pytest.raises(AttributeError):
        e.a = F(2)
    with pytest.raises(AttributeError):
        e.table = BiSeries.zero(4)


def test_element_terms_sorted():
    e = MetabelianElement(
        8, table={(2, 1): F(1), (0, 0): F(1), (0, 2): F(1), (1, 1): F(1)}
    )
    assert [kl for kl, _ in e.table.terms()] == [(0, 0), (0, 2), (1, 1), (2, 1)]


def test_element_algebra():
    e = MetabelianElement(5, 1, 0, {(1, 0): F(1, 3)})
    f = MetabelianElement(5, 0, 2, {(1, 0): F(-1, 3), (0, 1): F(1)})
    s = e + f
    assert s.a == 1 and s.b == 2
    assert s.table.coefficient(1, 0) == 0 and s.table.coefficient(0, 1) == 1
    assert (e - e).is_zero()
    assert (F(-3) * e).table.coefficient(1, 0) == -1
    assert e + f == f + e


def test_element_degree_part():
    e = hausdorff_closed(5)
    d1 = e.degree_part(1)
    assert d1.a == 1 and d1.b == 1 and d1.table.is_zero()
    d3 = e.degree_part(3)
    assert dict(d3.table.items()) == {(1, 0): F(1, 12), (0, 1): F(-1, 12)}


def test_element_json_roundtrip():
    e = hausdorff_closed(6)
    data = e.to_json_dict()
    assert data["basis"] == "metabelian"
    assert data["X"] == "1"
    assert MetabelianElement.from_json_dict(data) == e


def test_element_csv():
    assert hausdorff_closed(4).to_csv() == (
        "k,l,c\n0,0,1/2\n0,1,-1/12\n1,0,1/12\n1,1,-1/24\n"
    )


def test_element_str():
    assert str(hausdorff_closed(4)) == (
        "X + Y + 1/2 [XY] - 1/12 [YXY] + 1/12 [X^2Y] - 1/24 [XYXY]"
    )
    assert str(MetabelianElement.zero(3)) == "0"


def test_element_truncations_one_and_two():
    e = MetabelianElement(1, 2, -1, {(0, 0): F(5)})
    assert (e.a, e.b, e.table.truncation) == (2, -1, -1)
    assert e.table.is_zero() and e.table.terms() == []
    with pytest.raises(ValueError, match="beyond truncation"):
        e.table.coefficient(0, 0)
    assert e.ad_x().is_zero() and e.ad_y().is_zero()  # degree 2 is cut
    assert e.subst_negswap() == MetabelianElement(1, 1, -2)
    assert e + hausdorff_closed(4) == MetabelianElement(1, 3, 0)
    assert e.degree_part(1) == e and e.degree_part(2).is_zero()
    assert str(e) == "2 X - Y"

    f = MetabelianElement(2, 2, -1, {(0, 0): F(5), (0, 1): F(1)})
    assert f.table.terms() == [((0, 0), F(5))]
    assert f.table == BiSeries(0, {(0, 0): F(5)})
    assert f.ad_x() == MetabelianElement(2, 0, 0, {(0, 0): F(-1)})
    assert f.ad_y() == MetabelianElement(2, 0, 0, {(0, 0): F(-2)})
    assert f.subst_negswap() == MetabelianElement(2, 1, -2, {(0, 0): F(-5)})
    assert f.degree_part(2) == MetabelianElement(2, 0, 0, {(0, 0): F(5)})
    assert F(1, 5) * f == MetabelianElement(2, F(2, 5), F(-1, 5), {(0, 0): 1})
    assert (f - f).is_zero()
    assert str(f) == "2 X - Y + 5 [XY]"
    assert hausdorff_closed(2) == MetabelianElement(2, 1, 1, {(0, 0): F(1, 2)})


def _swap_letters(chains: dict) -> LieSeries:
    """The free-algebra substitution X -> -Y, Y -> -X, chain by chain."""
    swap = str.maketrans("XY", "YX")
    return LieSeries(N, to_lyndon_coords(
        {w.translate(swap): (-1) ** len(w) * c for w, c in chains.items()}
    ))


def test_quotient_bracket_matches_free_algebra():
    rng = random.Random(5)
    n = 7
    for _ in range(30):
        chains = {"X": F(rng.randint(-3, 3)), "Y": F(rng.randint(-3, 3))}
        for _ in range(rng.randint(1, 6)):
            word = "".join(rng.choice("XY") for _ in range(rng.randint(2, n)))
            c = F(rng.randint(-5, 5), rng.randint(1, 4))
            chains[word] = chains.get(word, 0) + c
        e = LieSeries(N, to_lyndon_coords(chains))
        p = project(e.truncate(n))
        assert project(bracket(X, e).truncate(n)) == p.ad_x()
        assert project(bracket(Y, e).truncate(n)) == p.ad_y()
        assert project(_swap_letters(chains).truncate(n)) == p.subst_negswap()


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_project_normal_forms():
    e = project(bracket(Y, bracket(X, Y)).truncate(3))
    assert dict(e.table.items()) == {(0, 1): F(1)}

    e = project(bracket(bracket(X, Y), Y).truncate(3))
    assert dict(e.table.items()) == {(0, 1): F(-1)}

    # a bracket of two brackets dies in the quotient
    e = project(bracket(bracket(X, Y), bracket(X, bracket(X, Y))).truncate(5))
    assert e.is_zero()

    # prefix letters sort: [Y,[X,[X,Y]]] = B(1,1)
    e = project(long_commutator("YXXY", 4))
    assert dict(e.table.items()) == {(1, 1): F(1)}


def test_project_generators_and_truncation():
    e = project((2 * X - Y + long_commutator("XXY", N)).truncate(2))
    assert e.a == 2 and e.b == -1
    assert e.table.is_zero()  # degree 3 dropped at truncation 2


def test_project_kills_ideal():
    for d in range(4, 9):
        for e in ideal_spanning_elements("metabelian", d):
            assert project(e).is_zero()


def test_project_linear():
    rng = random.Random(7)
    pool = [long_commutator(w, 6) for w in ("XY", "XXY", "YXY", "XYXY", "YYXXY")]
    for _ in range(20):
        u = sum((F(rng.randint(-4, 4)) * t for t in pool), LieSeries.zero(6))
        v = sum((F(rng.randint(-4, 4)) * t for t in pool), LieSeries.zero(6))
        assert project(u) + project(v) == project(u + v)


def _chain_rule_project(chains: dict, truncation: int) -> MetabelianElement:
    """The projection of a chain combination by the chain rule, as a
    reference: a chain whose final two letters agree is zero, a tail YX
    flips sign to the tail XY, and the prefix letters commute modulo
    brackets of brackets, sorted into X^k Y^l, landing in B(k,l)."""
    a = b = F(0)
    table = {}
    for w, c in chains.items():
        if len(w) > truncation:
            continue
        if len(w) == 1:
            a, b = (a + c, b) if w == "X" else (a, b + c)
            continue
        tail = w[-2:]
        if tail in ("XX", "YY"):
            continue
        prefix = w[:-2]
        kl = (prefix.count("X"), prefix.count("Y"))
        table[kl] = table.get(kl, 0) + (-c if tail == "YX" else c)
    return MetabelianElement(truncation, a, b, table)


@pytest.mark.parametrize("d", range(2, 13))
def test_flagged_lyndon_words_span_the_ideal(d):
    # The factor rule that project and ideal_membership read.  For each
    # ideal, the words at its level are as many as the rank of its
    # spanning brackets, and no spanning bracket has a coordinate at a
    # word below that level, so the two spans are equal in degree d.
    words = lyndon_words(d)
    quotient = ["X" * k + "Y" * (d - k) for k in range(d - 1, 0, -1)]
    assert [w for w in words if _ideal_level(w) == 0] == quotient
    rng = random.Random(d)
    for ideal, level in _IDEALS.items():
        flagged = [w for w in words if _ideal_level(w) >= level]
        below = [w for w in words if _ideal_level(w) < level]
        spanning = ideal_spanning_coords(ideal, d)
        rank = span_rank(spanning)
        assert rank == len(flagged), ideal
        assert not any(v.get(w) for v in spanning for w in below), ideal
        # Membership against a rank reference, on flagged words with or
        # without an unflagged one.
        for i in range(6):
            picked = rng.sample(flagged, min(len(flagged), 3))
            if i % 2:
                picked.append(rng.choice(below))
            coords = {w: rng.choice((-3, -1, 1, 2)) for w in picked}
            member = span_rank(spanning + [coords]) == rank
            assert ideal_membership(LieSeries(d, coords), ideal) == member, (ideal, coords)
            assert member == (i % 2 == 0)


def _mask_count_failure(level_of, d: int) -> str | None:
    """Why the factor rule ``level_of`` is no basis of the ideals in
    degree d, or None.

    Each P_w lies in the ideal of its level by construction, so the mask
    is a basis of each ideal once it flags as many words as the ideal's
    dimension.  L' is free on W with dim W_a = a - 1 (a >= 2, W_1 = 0),
    so L/L'' has the d - 1 words X^kY^l in degree d, L''/[L',L''] is the
    exterior square of W, and level 2 holds the rest.
    """
    words = lyndon_words(d)
    levels = [level_of(w) for w in words]
    quotient = ["X" * k + "Y" * (d - k) for k in range(d - 1, 0, -1)]
    if [w for w, level in zip(words, levels) if level == 0] != quotient:
        return f"degree {d}: {levels.count(0)} words at level 0, expected {d - 1}"
    dim_w = [max(a - 1, 0) for a in range(d + 1)]
    square = sum(dim_w[a] * dim_w[d - a] for a in range(1, d))
    exterior = (square - (dim_w[d // 2] if d % 2 == 0 else 0)) // 2
    counts = [levels.count(level) for level in range(3)]
    expected = [d - 1, exterior, len(words) - (d - 1) - exterior]
    return None if counts == expected else f"degree {d}: counts {counts}, expected {expected}"


@pytest.mark.parametrize("d", range(2, 21))
def test_mask_counts_certify_both_ideals(d):
    # Through degree 20, the highest any command serves (deeper at 20,
    # bch and project at 16); the rank reference above stops at 12.
    assert _mask_count_failure(_ideal_level, d) is None


def _mutant_rule(bump):
    """The factor rule with ``bump(len(u), len(v))`` in place of "both
    factors have length at least 2"."""
    def level(word):
        if len(word) == 1:
            return 0
        u, v = standard_factorization(word)
        return min(max(level(u), level(v)) + bump(len(u), len(v)), 2)

    return level


@pytest.mark.parametrize("bump, first_failure", [
    (lambda m, n: m > 1 or n > 1, "degree 3: 0 words at level 0, expected 2"),
    (lambda m, n: m > 2 and n > 2, "degree 5: 6 words at level 0, expected 4"),
], ids=["over-flagging", "under-flagging"])
def test_mask_mutants_fail_the_count_and_verify(monkeypatch, bump, first_failure):
    level = _mutant_rule(bump)
    failures = (_mask_count_failure(level, d) for d in range(2, 21))
    assert next(f for f in failures if f) == first_failure
    monkeypatch.setattr("mbch.freelie._ideal_level", level)
    monkeypatch.setattr("mbch.metabelian._ideal_level", level)
    checks = {name: (passed, detail) for name, passed, detail in check_metabelian(8)}
    assert checks["projection kills the ideal through degree 8"] == (False, first_failure)


def test_check_metabelian_names_the_first_flagged_word_off_zero(monkeypatch):
    # A project that reads the level-1 words as if they were the X^kY^l:
    # the mask is unchanged, so the count passes, and the first flagged
    # word that reaches a table slot is named.
    monkeypatch.setattr("mbch.metabelian._ideal_level", lambda w: max(_ideal_level(w) - 1, 0))
    checks = {name: (passed, detail) for name, passed, detail in check_metabelian(8)}
    assert checks["projection kills the ideal through degree 8"] == (
        False, "XXYXY: differs at (1,2): 1 != 0"
    )


def test_check_metabelian_names_the_first_chain_off_its_unit(monkeypatch):
    # A project that writes B(l,k) for B(k,l).
    def transposed(e):
        p = project(e)
        return MetabelianElement(p.truncation, p.a, p.b, p.table.substitute(x=(0, 1), y=(1, 0)))

    monkeypatch.setattr("mbch.verify.project", transposed)
    checks = {name: (passed, detail) for name, passed, detail in check_metabelian(8)}
    assert checks["basis chains independent through degree 8"] == (
        False, "B(0,1): differs at (0,1): 0 != 1"
    )


def test_project_agrees_with_the_chain_rule():
    rng = random.Random(12)
    for _ in range(60):
        chains = {}
        for _ in range(rng.randint(1, 8)):
            word = "".join(rng.choice("XY") for _ in range(rng.randint(1, 12)))
            chains[word] = F(rng.randint(-9, 9), rng.randint(1, 5))
        n = rng.randint(1, 12)
        e = LieSeries(N, to_lyndon_coords(chains))
        assert project(e.truncate(n)) == _chain_rule_project(chains, n)


def test_basis_independence_through_degree_eight():
    # The B(k,l) of one degree expand to independent word vectors.
    for d in range(2, 9):
        vecs = [
            dict(to_assoc(long_commutator("X" * k + "Y" * (d - 2 - k) + "XY", d)).items())
            for k in range(d - 1)
        ]
        assert span_rank(vecs) == d - 1


# ---------------------------------------------------------------------------
# h_series and the closed formula
# ---------------------------------------------------------------------------

def test_h_low_degrees():
    h = h_series(4)
    assert h.coefficient(0, 0) == F(1, 2)
    assert h.coefficient(1, 0) == F(1, 12)
    assert h.coefficient(0, 1) == F(-1, 12)
    assert h.coefficient(1, 1) == F(-1, 24)
    assert h.coefficient(2, 0) == 0 and h.coefficient(0, 2) == 0
    # -(x^3 + 4x^2 y - 4x y^2 - y^3)/720
    assert h.coefficient(3, 0) == F(-1, 720)
    assert h.coefficient(2, 1) == F(-4, 720)
    assert h.coefficient(1, 2) == F(4, 720)
    assert h.coefficient(0, 3) == F(1, 720)
    # (x^3 y + 4x^2 y^2 + x y^3)/1440
    assert h.coefficient(4, 0) == 0 and h.coefficient(0, 4) == 0
    assert h.coefficient(3, 1) == F(1, 1440)
    assert h.coefficient(2, 2) == F(4, 1440)
    assert h.coefficient(1, 3) == F(1, 1440)


def test_h_negswap_symmetry():
    for n in (12, 62):
        h = h_series(n)
        assert h.substitute(x=(0, -1), y=(-1, 0)) == h


def test_h_at_62_equals_its_coefficient_formula():
    # Minus the coefficient of x^k y^(l+1) in ((e^x - 1)/x) ((x+y)/(e^(x+y) - 1)),
    # a finite Bernoulli sum per slot: no series division.
    n = 62
    formula = {
        (k, l): -sum(
            bernoulli(r + l + 1) / (factorial(r) * factorial(l + 1) * factorial(k - r + 1))
            for r in range(k + 1)
        )
        for k in range(n + 1)
        for l in range(n + 1 - k)
    }
    assert h_series(n) == BiSeries(n, formula)


def test_closed_formula_low_degrees():
    e = hausdorff_closed(4)
    assert e.a == 1 and e.b == 1
    assert dict(e.table.items()) == {
        (0, 0): F(1, 2),
        (1, 0): F(1, 12),
        (0, 1): F(-1, 12),
        (1, 1): F(-1, 24),
    }


def test_closed_equals_projected_recursion():
    for n in range(1, 9):
        assert project(bch_recursive(n)) == hausdorff_closed(n)


def test_check_metabelian_names_the_first_differing_slot(monkeypatch):
    def perturbed(n):
        return hausdorff_closed(n) + MetabelianElement(n, 0, 0, {(2, 1): 1, (3, 1): 1})

    monkeypatch.setattr("mbch.verify.hausdorff_closed", perturbed)
    name, passed, detail = check_metabelian(6)[0]
    assert name == "projected recursion equals closed formula at degree 6"
    assert (passed, detail) == (False, "differs at (2,1): -1/180 != 179/180")


def test_check_metabelian_names_the_first_differing_word_coefficient(monkeypatch):
    def perturbed(n):
        return goldberg_c(n) + BiSeries.monomial(2, 3, n, F(1, 5))

    monkeypatch.setattr("mbch.verify.goldberg_c", perturbed)
    checks = check_metabelian(8)
    assert checks[2] == (
        "c_rs matches word coefficients through degree 8",
        False,
        "differs at (2,3): 37/180 != 1/180",
    )
    assert checks[3] == ("c_{k+1,l+1} = (-1)^l h_kl", False, "differs at (2,3): 37/180 != 1/180")


def test_check_zassenhaus_names_the_degree_and_slot(monkeypatch):
    def perturbed(n):
        return zassenhaus_closed(n) + MetabelianElement(n, table={(1, 2): F(1, 3)})

    monkeypatch.setattr("mbch.verify.zassenhaus_closed", perturbed)
    name, passed, detail = run_suite("zassenhaus", 8)[0]
    assert name == "per-degree terms match stripping through degree 8"
    assert (passed, detail) == (False, "degree 5: differs at (1,2): 1/20 != 23/60")


def test_closed_degree_five_against_word_oracle():
    # Second, independent path: word-level log, Lyndon extraction, project.
    lie = LieSeries(5, lyndon_coords_of_assoc(bch_log_oracle(5)))
    assert project(lie).degree_part(5) == hausdorff_closed(5).degree_part(5)


# ---------------------------------------------------------------------------
# goldberg_c
# ---------------------------------------------------------------------------

def test_goldberg_low_coefficients():
    c = goldberg_c(4)
    assert c.coefficient(1, 1) == F(1, 2)
    assert c.coefficient(2, 1) == F(1, 12)
    assert c.coefficient(1, 2) == F(1, 12)


def test_goldberg_supported_on_positive_bidegrees():
    c = goldberg_c(8)
    for (i, j), v in c.terms():
        assert i >= 1 and j >= 1 and v


def test_goldberg_matches_word_coefficients():
    n = 8
    c = goldberg_c(n)
    h = bch_log_oracle(n)
    for r in range(1, n):
        for s in range(1, n - r + 1):
            assert c.coefficient(r, s) == h.coefficient("X" * r + "Y" * s)


def test_goldberg_h_relation():
    # c_{k+1,l+1} = (-1)^l h_{kl}
    c = goldberg_c(10)
    h = h_series(8)
    for k in range(9):
        for l in range(9 - k):
            assert c.coefficient(k + 1, l + 1) == (-1) ** l * h.coefficient(k, l)


def test_goldberg_equals_xy_h_of_x_negy():
    c = goldberg_c(9)
    xyh = h_series(7).substitute(y=(0, -1)).shift(1, 1)
    assert c == xyh


# ---------------------------------------------------------------------------
# zassenhaus_closed
# ---------------------------------------------------------------------------

def test_zassenhaus_operator_expansion():
    assert dict(zassenhaus_closed(4).table.items()) == {
        (0, 0): F(-1, 2),
        (1, 0): F(1, 6),
        (0, 1): F(1, 3),
        (2, 0): F(-1, 24),
        (1, 1): F(-1, 8),
        (0, 2): F(-1, 8),
    }


def test_zassenhaus_first_terms():
    z = zassenhaus_closed(4)
    assert z.a == 0 and z.b == 0
    assert dict(z.degree_part(2).table.items()) == {(0, 0): F(-1, 2)}
    assert dict(z.degree_part(3).table.items()) == {(1, 0): F(1, 6), (0, 1): F(1, 3)}
    assert dict(z.degree_part(4).table.items()) == {
        (2, 0): F(-1, 24),
        (1, 1): F(-1, 8),
        (0, 2): F(-1, 8),
    }


def test_zassenhaus_against_stripping_oracle():
    n = 7
    z = zassenhaus_closed(n)
    for d, c_d in enumerate(zassenhaus_oracle(n), start=2):
        assert project(c_d).degree_part(d) == z.degree_part(d)


def test_zassenhaus_against_log_residual():
    n = 8
    x = NCSeries.generator("X", n)
    y = NCSeries.generator("Y", n)
    residual = nc_log(nc_exp(-y) * nc_exp(-x) * nc_exp(x + y))
    lie = LieSeries(n, lyndon_coords_of_assoc(residual))
    assert project(lie) == zassenhaus_closed(n)


def test_zassenhaus_at_64_equals_its_coefficient_formula():
    # Modulo brackets of brackets the Zassenhaus recursion collapses to one
    # closed coefficient per slot B(k,l): no series division.
    n = 64
    formula = {
        (k, l): F((-1) ** (k + l + 1), (k + l + 2) * factorial(k + 1) * factorial(l))
        for k in range(n - 1)
        for l in range(n - 1 - k)
    }
    assert len(formula) == 2016
    assert dict(zassenhaus_closed(n).table.items()) == formula


# ---------------------------------------------------------------------------
# kv_solve / kv_verify
# ---------------------------------------------------------------------------

def test_kv_particular_solution():
    f = kv_solve(8)
    assert f.a == 0 and f.b == F(1, 4)
    assert f.table.coefficient(0, 0) == F(1, 12)
    assert kv_verify(f, 8)


def test_kv_solve_and_verify_share_one_h():
    # kv_verify reads the h that kv_solve computed, h at n - 1 cut to n - 2.
    h_series.cache_clear()
    n = 20
    assert kv_verify(kv_solve(n), n)
    assert h_series.cache_info().misses == 1


def test_metabelian_suite_asks_for_each_h_once():
    # The closed formula computes h at n - 2 and the suite h at n; the
    # suite cuts its own h for the c_rs checks instead of asking again.
    h_series.cache_clear()
    assert all(passed for _, passed, _ in run_suite("metabelian", 9))
    info = h_series.cache_info()
    assert (info.misses, info.hits) == (2, 0)


def test_kv_scalar_freedom():
    assert kv_verify(kv_solve(8, 17), 8)
    assert kv_verify(kv_solve(8, F(-2, 3)), 8)


def test_kv_equation_4_5():
    n = 9
    f = kv_solve(n).table
    lhs = f.shift(1, 0) - f.substitute(x=(0, -1), y=(-1, 0)).shift(0, 1)
    rhs = h_series(n - 1) - F(1, 2)
    assert lhs.agrees_with(rhs, through=n - 1)


def _random_antisymmetric(rng: random.Random, truncation: int) -> BiSeries:
    coeffs = {}
    for i in range(truncation + 1):
        for j in range(i + 1, truncation - i + 1):
            c = F(rng.randint(-6, 6), rng.randint(1, 4))
            if c:
                coeffs[(i, j)] = c
                coeffs[(j, i)] = -((-1) ** (i + j)) * c
    return BiSeries(truncation, coeffs)


def test_kv_homogeneous_family():
    rng = random.Random(2026)
    for _ in range(10):
        g = _random_antisymmetric(rng, 5)
        a = F(rng.randint(-9, 9), rng.randint(1, 5))
        assert kv_verify(kv_solve(9, a, g), 9)


def test_kv_rejects_bad_g():
    g = BiSeries.monomial(1, 0, 4)  # g(-y,-x) = -y is not -g
    with pytest.raises(ValueError, match="antisymmetry"):
        kv_solve(6, 0, g)


def test_kv_verify_rejects_trivial_f():
    assert not kv_verify(MetabelianElement(3, 0, F(1, 4)), 3)
    assert not kv_verify(MetabelianElement(6, 0, F(1, 4)), 6)


# Each kv check names its witness.  kv_solve is called once for the
# particular solution and then once per random draw; the call named by
# ``call`` gets ``table`` added to its f.
@pytest.mark.parametrize("call, table, name, detail", [
    (1, {(2, 1): 1}, "particular solution satisfies the equation",
     "differs at (1,3): 1441/1440 != 1/1440"),
    (1, {(0, 0): F(1, 12)}, "constant coefficient of f is 1/12",
     "differs at (0,0): 1/6 != 1/12"),
    (1, {(1, 1): F(1, 5)}, "x f(x,y) - y f(-y,-x) = h - 1/2",
     "differs at (1,2): -7/36 != 1/180"),
    (4, {(1, 2): F(1, 3)}, "random (a, g) solutions satisfy the equation",
     "draw 3: differs at (2,2): 241/360 != 1/360"),
], ids=["particular-solution", "constant-coefficient", "series-form", "random-draw"])
def test_check_kv_names_its_witness(monkeypatch, call, table, name, detail):
    calls = []

    def perturbed(n, a=0, g=None):
        calls.append((a, g))
        f = kv_solve(n, a, g)
        return f + MetabelianElement(n, table=table) if len(calls) == call else f

    monkeypatch.setattr("mbch.verify.kv_solve", perturbed)
    checks = {check: (passed, text) for check, passed, text in check_kv(8)}
    assert checks[name] == (False, detail)
    # The random check stops at the first draw that fails.
    assert len(calls) == (6 if call == 1 else call)
