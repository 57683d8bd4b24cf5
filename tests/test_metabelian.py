"""Tests for the quotient modulo brackets of brackets."""

import functools
import random
from fractions import Fraction as F

import pytest

from mbch.assoc import bch_log_oracle, zassenhaus_oracle, nc_exp, nc_log, NCSeries
from mbch.bch import bch_recursive
from mbch.freelie import (
    LieElement,
    bracket,
    ideal_spanning_elements,
    long_commutator,
    lyndon_coords_of_assoc,
    lyndon_words,
    span_rank,
    standard_factorization,
    to_assoc,
    to_lyndon_coords,
)
from mbch.freelie import _ideal_spanning_coords
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
from mbch.series import BiSeries
from mbch.verify import check_metabelian


X = LieElement.generator("X")
Y = LieElement.generator("Y")


# ---------------------------------------------------------------------------
# MetabelianElement basics
# ---------------------------------------------------------------------------

def test_element_construction_and_access():
    e = MetabelianElement(6, 1, -2, {(0, 0): F(1, 2), (3, 3): F(1)})
    assert e.a == 1 and e.b == -2
    assert e.coefficient(0, 0) == F(1, 2)
    # (3,3) has degree 8 > 6 and is dropped on construction
    assert (3, 3) not in dict(e.terms())
    with pytest.raises(ValueError, match="beyond truncation"):
        e.coefficient(4, 4)
    with pytest.raises(ValueError, match="negative"):
        MetabelianElement(4, table={(-1, 0): F(1)})
    with pytest.raises(AttributeError):
        e.a = F(2)


def test_element_terms_sorted():
    e = MetabelianElement(
        8, table={(2, 1): F(1), (0, 0): F(1), (0, 2): F(1), (1, 1): F(1)}
    )
    assert [kl for kl, _ in e.terms()] == [(0, 0), (0, 2), (1, 1), (2, 1)]


def test_element_algebra():
    e = MetabelianElement(5, 1, 0, {(1, 0): F(1, 3)})
    f = MetabelianElement(5, 0, 2, {(1, 0): F(-1, 3), (0, 1): F(1)})
    s = e + f
    assert s.a == 1 and s.b == 2
    assert s.coefficient(1, 0) == 0 and s.coefficient(0, 1) == 1
    assert (e - e).is_zero()
    assert (F(-3) * e).coefficient(1, 0) == -1
    assert e + f == f + e


def test_element_degree_part():
    e = hausdorff_closed(5)
    d1 = e.degree_part(1)
    assert d1.a == 1 and d1.b == 1 and not list(d1.terms())
    d3 = e.degree_part(3)
    assert dict(d3.terms()) == {(1, 0): F(1, 12), (0, 1): F(-1, 12)}


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
    assert (e.a, e.b, e.terms()) == (2, -1, [])
    with pytest.raises(ValueError, match="beyond truncation"):
        e.coefficient(0, 0)
    with pytest.raises(ValueError, match="no table"):
        e.table_series()
    assert e.ad_x().is_zero() and e.ad_y().is_zero()  # degree 2 is cut
    assert e.subst_negswap() == MetabelianElement(1, 1, -2)
    assert e + hausdorff_closed(4) == MetabelianElement(1, 3, 0)
    assert e.degree_part(1) == e and e.degree_part(2).is_zero()
    assert str(e) == "2 X - Y"

    f = MetabelianElement(2, 2, -1, {(0, 0): F(5), (0, 1): F(1)})
    assert f.terms() == [((0, 0), F(5))]
    assert f.table_series() == BiSeries(0, {(0, 0): F(5)})
    assert f.ad_x() == MetabelianElement(2, 0, 0, {(0, 0): F(-1)})
    assert f.ad_y() == MetabelianElement(2, 0, 0, {(0, 0): F(-2)})
    assert f.subst_negswap() == MetabelianElement(2, 1, -2, {(0, 0): F(-5)})
    assert f.degree_part(2) == MetabelianElement(2, 0, 0, {(0, 0): F(5)})
    assert F(1, 5) * f == MetabelianElement(2, F(2, 5), F(-1, 5), {(0, 0): 1})
    assert (f - f).is_zero()
    assert str(f) == "2 X - Y + 5 [XY]"
    assert hausdorff_closed(2) == MetabelianElement(2, 1, 1, {(0, 0): F(1, 2)})


def _swap_letters(chains: dict) -> LieElement:
    """The free-algebra substitution X -> -Y, Y -> -X, chain by chain."""
    swap = str.maketrans("XY", "YX")
    return LieElement(to_lyndon_coords(
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
        e = LieElement(to_lyndon_coords(chains))
        p = project(e, n)
        assert project(bracket(X, e), n) == p.ad_x()
        assert project(bracket(Y, e), n) == p.ad_y()
        assert project(_swap_letters(chains), n) == p.subst_negswap()


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_project_normal_forms():
    e = project(bracket(Y, bracket(X, Y)), 3)
    assert dict(e.terms()) == {(0, 1): F(1)}

    e = project(bracket(bracket(X, Y), Y), 3)
    assert dict(e.terms()) == {(0, 1): F(-1)}

    # a bracket of two brackets dies in the quotient
    e = project(bracket(bracket(X, Y), bracket(X, bracket(X, Y))), 5)
    assert e.is_zero()

    # prefix letters sort: [Y,[X,[X,Y]]] = B(1,1)
    e = project(long_commutator("YXXY"), 4)
    assert dict(e.terms()) == {(1, 1): F(1)}


def test_project_generators_and_truncation():
    e = project(2 * X - Y + long_commutator("XXY"), 2)
    assert e.a == 2 and e.b == -1
    assert not list(e.terms())  # degree 3 dropped at truncation 2


def test_project_kills_ideal():
    for d in range(4, 9):
        for e in ideal_spanning_elements("metabelian", d):
            assert project(e, d).is_zero()


def test_project_linear():
    rng = random.Random(7)
    pool = [long_commutator(w) for w in ("XY", "XXY", "YXY", "XYXY", "YYXXY")]
    for _ in range(20):
        u = sum((F(rng.randint(-4, 4)) * t for t in pool), LieElement.zero())
        v = sum((F(rng.randint(-4, 4)) * t for t in pool), LieElement.zero())
        assert project(u, 6) + project(v, 6) == project(u + v, 6)


@functools.cache
def _flagged(w: str) -> bool:
    """P_w lies in [[L,L],[L,L]] by construction: both standard factors
    have length at least 2, or one of them is flagged."""
    if len(w) == 1:
        return False
    u, v = standard_factorization(w)
    return (len(u) > 1 and len(v) > 1) or _flagged(u) or _flagged(v)


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
    # The rule project reads coordinates by: the unflagged words are the
    # X^k Y^l, the flagged ones are as many as the ideal's dimension, and
    # the ideal's spanning brackets carry no X^k Y^l coordinate.
    words = lyndon_words(d)
    quotient = ["X" * k + "Y" * (d - k) for k in range(d - 1, 0, -1)]
    assert [w for w in words if not _flagged(w)] == quotient
    spanning = _ideal_spanning_coords("metabelian", d)
    rank = span_rank({w: F(c) for w, c in v.items()} for v in spanning)
    assert rank == len(words) - (d - 1)
    assert not any(v.get(w) for v in spanning for w in quotient)


def test_project_agrees_with_the_chain_rule():
    rng = random.Random(12)
    for _ in range(60):
        chains = {}
        for _ in range(rng.randint(1, 8)):
            word = "".join(rng.choice("XY") for _ in range(rng.randint(1, 12)))
            chains[word] = F(rng.randint(-9, 9), rng.randint(1, 5))
        n = rng.randint(1, 12)
        e = LieElement(to_lyndon_coords(chains))
        assert project(e, n) == _chain_rule_project(chains, n)


def test_basis_independence_through_degree_eight():
    # The B(k,l) of one degree expand to independent word vectors.
    for d in range(2, 9):
        vecs = [
            to_assoc(long_commutator("X" * k + "Y" * (d - 2 - k) + "XY"), d).word_dict()
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


def test_closed_formula_low_degrees():
    e = hausdorff_closed(4)
    assert e.a == 1 and e.b == 1
    assert dict(e.terms()) == {
        (0, 0): F(1, 2),
        (1, 0): F(1, 12),
        (0, 1): F(-1, 12),
        (1, 1): F(-1, 24),
    }


def test_closed_equals_projected_recursion():
    for n in range(1, 9):
        assert project(bch_recursive(n), n) == hausdorff_closed(n)


def test_check_metabelian_names_the_first_differing_slot(monkeypatch):
    def perturbed(n):
        return hausdorff_closed(n) + MetabelianElement(n, 0, 0, {(2, 1): 1, (3, 1): 1})

    monkeypatch.setattr("mbch.verify.hausdorff_closed", perturbed)
    name, passed, detail = check_metabelian(6)[0]
    assert name == "projected recursion equals closed formula at degree 6"
    assert (passed, detail) == (False, "differs at (2,1): -1/180 != 179/180")


def test_closed_degree_five_against_word_oracle():
    # Second, independent path: word-level log, Lyndon extraction, project.
    lie = LieElement(lyndon_coords_of_assoc(bch_log_oracle(5)))
    assert project(lie, 5).degree_part(5) == hausdorff_closed(5).degree_part(5)


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
    for i, j, v in c.terms():
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
    t = zassenhaus_closed(4).table_series()
    assert {(i, j): c for i, j, c in t.terms()} == {
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
    assert dict(z.degree_part(2).terms()) == {(0, 0): F(-1, 2)}
    assert dict(z.degree_part(3).terms()) == {(1, 0): F(1, 6), (0, 1): F(1, 3)}
    assert dict(z.degree_part(4).terms()) == {
        (2, 0): F(-1, 24),
        (1, 1): F(-1, 8),
        (0, 2): F(-1, 8),
    }


def test_zassenhaus_against_stripping_oracle():
    n = 7
    z = zassenhaus_closed(n)
    for d, c_d in enumerate(zassenhaus_oracle(n), start=2):
        assert project(c_d, n).degree_part(d) == z.degree_part(d)


def test_zassenhaus_against_log_residual():
    n = 8
    x = NCSeries.generator("X", n)
    y = NCSeries.generator("Y", n)
    residual = nc_log(nc_exp(-y) * nc_exp(-x) * nc_exp(x + y))
    lie = LieElement(lyndon_coords_of_assoc(residual))
    assert project(lie, n) == zassenhaus_closed(n)


# ---------------------------------------------------------------------------
# kv_solve / kv_verify
# ---------------------------------------------------------------------------

def test_kv_particular_solution():
    f = kv_solve(8)
    assert f.a == 0 and f.b == F(1, 4)
    assert f.coefficient(0, 0) == F(1, 12)
    assert kv_verify(f, 8)


def test_kv_solve_and_verify_share_one_h():
    # kv_verify reads the h that kv_solve computed, h at n - 1 cut to n - 2.
    h_series.cache_clear()
    n = 20
    assert kv_verify(kv_solve(n), n)
    assert h_series.cache_info().misses == 1


def test_kv_scalar_freedom():
    assert kv_verify(kv_solve(8, 17), 8)
    assert kv_verify(kv_solve(8, F(-2, 3)), 8)


def test_kv_equation_4_5():
    n = 9
    f = kv_solve(n).table_series()
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
