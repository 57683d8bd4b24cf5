"""Tests for the exact bivariate series kernel."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbch.assoc import NCSeries
from mbch.freelie import LieSeries, bracket, long_commutator
from mbch.metabelian import MetabelianElement
from mbch.series import (
    BiSeries,
    InexactDivision,
    PairSeries,
    bernoulli,
    parse_int,
    parse_rational,
)
from mbch.tilde import TildeElement

F = Fraction


# ---------------------------------------------------------------------------
# Independent oracle: Bernoulli numbers by long division of t/(e^t - 1).
# ---------------------------------------------------------------------------

def _bernoulli_by_long_division(n_max):
    """B_n = n! * [t^n] (t / (e^t - 1)), inverting sum t^k/(k+1)! directly."""
    fact = [1]
    for k in range(1, n_max + 2):
        fact.append(fact[-1] * k)
    a = [F(1, fact[k + 1]) for k in range(n_max + 1)]  # (e^t - 1)/t
    inv = [F(0)] * (n_max + 1)
    inv[0] = F(1)
    for m in range(1, n_max + 1):
        inv[m] = -sum(a[k] * inv[m - k] for k in range(1, m + 1))
    return [fact[n] * inv[n] for n in range(n_max + 1)]


def test_bernoulli_against_long_division_oracle():
    oracle = _bernoulli_by_long_division(16)
    for n in range(17):
        assert bernoulli(n) == oracle[n]


def test_bernoulli_frozen_values():
    # Values frozen from the long-division oracle / classical tables.
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)
    for n in range(3, 30, 2):
        assert bernoulli(n) == 0
    with pytest.raises(ValueError):
        bernoulli(-1)


# ---------------------------------------------------------------------------
# Construction, inspection, named series
# ---------------------------------------------------------------------------

def test_named_expm1_over_t_univariate():
    s = BiSeries.named("expm1_over_t", 5)
    # (e^x - 1)/x = sum x^n/(n+1)!
    assert s.coefficient(0, 0) == 1
    assert s.coefficient(1, 0) == F(1, 2)
    assert s.coefficient(2, 0) == F(1, 6)
    assert s.coefficient(3, 0) == F(1, 24)
    assert all(s.coefficient(i, j) == 0 for i in range(5) for j in range(1, 5 - i))


def test_named_at_linear_forms_binomial_expansion():
    s = BiSeries.named("exp", 4).substitute(x=(1, 1))
    # e^(x+y) coefficient of x^i y^j is 1/(i! j!) = C(i+j, i)/(i+j)!
    fact = [1, 1, 2, 6, 24]
    for i in range(5):
        for j in range(5 - i):
            assert s.coefficient(i, j) == F(1, fact[i] * fact[j])
    # e^(x+2y): coefficient of x^i y^j is 2^j/(i! j!)
    s2 = BiSeries.named("exp", 4).substitute(x=(1, 2))
    for i in range(5):
        for j in range(5 - i):
            assert s2.coefficient(i, j) == F(2**j, fact[i] * fact[j])
    t = BiSeries.named("expm1", 3).substitute(x=(0, -1))
    assert t.coefficient(0, 0) == 0
    assert t.coefficient(0, 1) == -1
    assert t.coefficient(0, 2) == F(1, 2)
    assert t.coefficient(0, 3) == F(-1, 6)


def test_named_product_pairs_are_one():
    one = BiSeries.one(8)
    for form in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)):
        t_over = BiSeries.named("t_over_expm1", 8).substitute(x=form)
        prod = t_over * BiSeries.named("expm1_over_t", 8).substitute(x=form)
        assert prod == one


def test_exp_times_exp_in_two_variables():
    ex = BiSeries.named("exp", 6)
    assert ex * ex.substitute(x=(0, 1)) == ex.substitute(x=(1, 1))


def test_named_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        BiSeries.named("sinh", 4)


def test_coefficient_beyond_truncation_raises():
    s = BiSeries.one(3)
    with pytest.raises(ValueError):
        s.coefficient(2, 2)


def test_negative_exponent_lookup_raises():
    lookups = (
        lambda: BiSeries.one(3).coefficient(-2, 1),
        lambda: MetabelianElement(4).table.coefficient(-1, 0),
        lambda: TildeElement(6).linear.coefficient(-1, 2),
    )
    for lookup in lookups:
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            lookup()


# ---------------------------------------------------------------------------
# Inverse and exact division
# ---------------------------------------------------------------------------

def test_inverse_of_expm1_over_t_gives_bernoulli_stream():
    # (x+y)/(e^(x+y) - 1) starts 1 - (x+y)/2 + ...
    inv = BiSeries.named("expm1_over_t", 6).substitute(x=(1, 1)).inverse()
    assert inv.coefficient(0, 0) == 1
    assert inv.coefficient(1, 0) == F(-1, 2)
    assert inv.coefficient(0, 1) == F(-1, 2)
    assert inv == BiSeries.named("t_over_expm1", 6).substitute(x=(1, 1))


def test_inverse_requires_unit():
    with pytest.raises(ValueError, match="non-unit series"):
        BiSeries.monomial(1, 0, 4).inverse()


def test_divide_exact_simple():
    y = BiSeries.monomial(0, 1, 5)
    num = BiSeries(5, {(1, 1): 1, (0, 2): 1})  # x*y + y^2
    q = num.divide_exact(y)
    assert q == BiSeries(4, {(1, 0): 1, (0, 1): 1})


def test_divide_exact_rejects_remainder():
    y = BiSeries.monomial(0, 1, 5)
    with pytest.raises(InexactDivision, match="inexact division"):
        (BiSeries.one(5) + BiSeries.monomial(1, 0, 5)).divide_exact(y)
    # x^2 / (x*y) is not a polynomial even though the univariate division works
    with pytest.raises(InexactDivision):
        BiSeries.monomial(2, 0, 5).divide_exact(BiSeries.monomial(1, 1, 5))


def test_divide_exact_stops_where_the_divisor_is_known():
    # x^2 / (x + O(x^2)): the divisor's degree-2 term, unknown here, moves
    # the quotient's degree-1 term, so only degree 0 is claimed.
    x2 = BiSeries.monomial(2, 0, 10)
    assert x2.divide_exact(BiSeries.monomial(1, 0, 1)) == BiSeries.zero(0)
    x_plus_x2 = BiSeries(10, {(1, 0): 1, (2, 0): 1})
    assert x2.divide_exact(x_plus_x2) == BiSeries(
        9, {(k, 0): (-1) ** (k - 1) for k in range(1, 10)}
    )
    # A shorter dividend cuts the quotient as before.
    assert BiSeries.monomial(2, 0, 3).divide_exact(x_plus_x2) == BiSeries(
        2, {(1, 0): 1, (2, 0): -1}
    )


def test_substitute_costs_the_terms_not_the_exponent():
    n = 10**6
    tracemalloc.start()
    try:
        swapped = BiSeries.monomial(n, 0, n).substitute(x=(0, -1), y=(-1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert swapped == BiSeries.monomial(0, n, n)
    assert peak < 2**22


def test_divide_exact_by_zero():
    with pytest.raises(ZeroDivisionError):
        BiSeries.one(4).divide_exact(BiSeries.zero(4))


def test_divide_exact_difference_of_exponentials():
    # (e^x - e^y) / (x - y) is a unit with constant term 1.
    expm1 = BiSeries.named("expm1", 9)
    num = expm1 - expm1.substitute(x=(0, 1))
    den = BiSeries.monomial(1, 0, 9) - BiSeries.monomial(0, 1, 9)
    unit = num.divide_exact(den)
    assert unit.coefficient(0, 0) == 1
    assert unit * den.truncate(8) == num.truncate(8)


# ---------------------------------------------------------------------------
# Substitutions, parity, shift
# ---------------------------------------------------------------------------

def test_subst_negswap_example():
    s = BiSeries(4, {(1, 0): 1, (0, 1): 2, (2, 1): F(1, 3)})
    t = s.substitute(x=(0, -1), y=(-1, 0))
    assert t.coefficient(0, 1) == -1
    assert t.coefficient(1, 0) == -2
    assert t.coefficient(1, 2) == F(-1, 3)


def test_parity_split_recombines():
    s = BiSeries.named("t_over_expm1", 7).substitute(x=(1, 1))
    even, odd = s.parity_split()
    assert even + odd == s
    assert all((i + j) % 2 == 0 for (i, j), _ in even.terms())
    assert all((i + j) % 2 == 1 for (i, j), _ in odd.terms())


def test_shift_roundtrip():
    s = BiSeries.named("exp", 5)
    y = BiSeries.monomial(0, 1, 6)
    assert s.shift(0, 1).divide_exact(y) == s
    assert s.shift(2, 1).truncation == 8


# ---------------------------------------------------------------------------
# Alternating-sum identities for the double sums over P^r Q^s
# ---------------------------------------------------------------------------

def _power_table(mono, n):
    out = [BiSeries.one(n)]
    for _ in range(n):
        out.append(out[-1] * mono)
    return out


def test_alternating_double_sum_identity_a():
    # sum_{m>=2} ((-1)^(m-1)/m) sum_{r+s=m, r,s>=1} P^r Q^s
    #   == (Q ln(1+P) - P ln(1+Q)) / (P - Q)   with P = x, Q = y.
    n = 12
    xp = _power_table(BiSeries.monomial(1, 0, n), n)
    yp = _power_table(BiSeries.monomial(0, 1, n), n)
    lhs = BiSeries.zero(n)
    for m in range(2, n + 1):
        inner = BiSeries.zero(n)
        for r in range(1, m):
            inner = inner + xp[r] * yp[m - r]
        lhs = lhs + F((-1) ** (m - 1), m) * inner
    lnx = BiSeries.named("log1p", n + 1)
    lny = lnx.substitute(x=(0, 1))
    num = BiSeries.monomial(0, 1, n + 1) * lnx - BiSeries.monomial(1, 0, n + 1) * lny
    den = BiSeries.monomial(1, 0, n + 1) - BiSeries.monomial(0, 1, n + 1)
    assert lhs == num.divide_exact(den)


def test_alternating_double_sum_identity_b():
    # sum_{m>=1} ((-1)^(m-1)/m) sum_{r+s=m+1, r,s>=1} P^r Q^s
    #   == (PQ/(P-Q)) ln((1+P)/(1+Q))          with P = x, Q = y.
    n = 12
    xp = _power_table(BiSeries.monomial(1, 0, n), n)
    yp = _power_table(BiSeries.monomial(0, 1, n), n)
    lhs = BiSeries.zero(n)
    for m in range(1, n):
        inner = BiSeries.zero(n)
        for r in range(1, m + 1):
            inner = inner + xp[r] * yp[m + 1 - r]
        lhs = lhs + F((-1) ** (m - 1), m) * inner
    lnx = BiSeries.named("log1p", n - 1)
    lnratio = lnx - lnx.substitute(x=(0, 1))
    den = BiSeries.monomial(1, 0, n + 1) - BiSeries.monomial(0, 1, n + 1)
    rhs = lnratio.shift(1, 1).divide_exact(den)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Serialization and text
# ---------------------------------------------------------------------------

def test_json_roundtrip_and_order():
    s = BiSeries(4, {(0, 1): F(-1, 12), (1, 0): F(1, 12), (0, 0): F(1, 2)})
    d = s.to_json_dict()
    assert d["truncation"] == 4
    assert [(t["i"], t["j"]) for t in d["terms"]] == [(0, 0), (0, 1), (1, 0)]
    assert d["terms"][1]["c"] == "-1/12"
    assert BiSeries.from_json_dict(d) == s


def test_str_forms():
    assert str(BiSeries.zero(3)) == "0"
    s = BiSeries(4, {(0, 0): F(1, 2), (1, 1): F(-1, 24), (2, 0): 1})
    assert str(s) == "1/2 - 1/24 x y + x^2"


def test_truncate_and_padded():
    s = BiSeries.named("exp", 6)
    t = s.truncate(2)
    assert t.truncation == 2
    with pytest.raises(ValueError):
        t.truncate(5)
    p = t.padded(4)
    assert p.truncation == 4 and p.coefficient(3, 0) == 0


# ---------------------------------------------------------------------------
# Ring laws (property-based)
# ---------------------------------------------------------------------------

_frac = st.fractions(min_value=-3, max_value=3, max_denominator=8)
_key = st.tuples(st.integers(0, 5), st.integers(0, 5))
_series = st.dictionaries(_key, _frac, max_size=6).map(lambda d: BiSeries(6, d))


@settings(max_examples=120, deadline=None)
@given(_series, _series, _series)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


_form = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def _compose(m, n):
    """The rows of the matrix product m n: substituting m, then n."""
    (a1, b1), (a2, b2) = m
    (c1, d1), (c2, d2) = n
    return (a1 * c1 + b1 * c2, a1 * d1 + b1 * d2), (a2 * c1 + b2 * c2, a2 * d1 + b2 * d2)


@settings(max_examples=80, deadline=None)
@given(_series, _form, _form, _form, _form)
def test_negswap_is_an_involution_and_multiplicative(a, mx, my, nx, ny):
    negswap = {"x": (0, -1), "y": (-1, 0)}
    assert a.substitute(**negswap).substitute(**negswap) == a
    b = BiSeries.named("exp", 6)
    assert (a * b).substitute(**negswap) == (
        a.substitute(**negswap) * b.substitute(**negswap)
    )
    # Every linear substitution is multiplicative, and two of them
    # compose as the product of their matrices.
    assert (a * b).substitute(x=mx, y=my) == (
        a.substitute(x=mx, y=my) * b.substitute(x=mx, y=my)
    )
    mx_nx, my_ny = _compose((mx, my), (nx, ny))
    assert a.substitute(x=mx, y=my).substitute(x=nx, y=ny) == a.substitute(
        x=mx_nx, y=my_ny
    )


@settings(max_examples=60, deadline=None)
@given(_series, _frac)
def test_inverse_on_units(a, c0):
    unit = a + BiSeries.constant(6, c0 + 7)  # force nonzero constant term
    assert unit * unit.inverse() == BiSeries.one(6)


@settings(max_examples=60, deadline=None)
@given(_series)
def test_exact_division_roundtrip(q):
    x_minus_y = BiSeries.monomial(1, 0, 6) - BiSeries.monomial(0, 1, 6)
    for d in (
        BiSeries.monomial(0, 1, 6),
        x_minus_y,
        BiSeries.monomial(1, 0, 6, 2),
        BiSeries.monomial(1, 0, 6) + BiSeries.monomial(0, 1, 6),
        # Divisors with terms above their lowest degree, which the running
        # remainder has to carry.
        x_minus_y * BiSeries.named("exp", 6).substitute(x=(1, 1)),
        BiSeries(6, {(2, 1): 1, (1, 2): 1, (4, 0): 1}),
        BiSeries(6, {(0, 0): 1, (1, 0): 1, (0, 2): -1}),
    ):
        v = d.min_degree()
        assert (q * d).divide_exact(d) == q.truncate(6 - v)


# ---------------------------------------------------------------------------
# One term printer and one exactness rule across the containers
# ---------------------------------------------------------------------------

def _nc(coeffs, n=4):
    return NCSeries(n, coeffs)


@pytest.mark.parametrize("element, text", [
    (BiSeries(3, {(0, 0): -1, (1, 0): 1, (0, 1): -1, (1, 1): F(-3, 2),
                  (2, 1): F(5, 7)}),
     "-1 - y + x - 3/2 x y + 5/7 x^2 y"),
    (BiSeries(2, {(0, 0): 1, (0, 2): -1}), "1 - y^2"),
    (BiSeries.zero(2), "0"),
    (_nc({"": -1, "X": -1, "XY": 1, "XXY": F(-2, 3), "YYX": 4}),
     "-1 - X + XY - 2/3 X^2Y + 4 Y^2X"),
    (_nc({"": 1, "X": F(1, 2)}), "1 + 1/2 X"),
    (NCSeries.zero(2), "0"),
    # The bracket of two chains is written in the Lyndon basis:
    # [[XY],[X^2Y]] is -[[X^2Y],[XY]].
    (LieSeries(5, {"X": -1, "Y": 1, "XY": F(-1, 2), "XXY": -1})
     + 3 * bracket(long_commutator("XY", 5), long_commutator("XXY", 5)),
     "-X + Y - 1/2 [XY] - [X^2Y] - 3 [[X^2Y],[XY]]"),
    (LieSeries.zero(2), "0"),
    (MetabelianElement(5, -1, 1, {(0, 0): -1, (1, 0): F(1, 2), (0, 1): 1,
                                  (1, 1): F(-2, 3)}),
     "-X + Y - [XY] + [YXY] + 1/2 [X^2Y] - 2/3 [XYXY]"),
    (MetabelianElement(4, 0, F(-1, 3), {(0, 0): 1}), "-1/3 Y + [XY]"),
    (MetabelianElement.zero(3), "0"),
    (TildeElement(8, -2, 0, linear={(0, 0): -1, (0, 1): F(1, 3)},
                  quadratic={((1, 0), (0, 0)): 1, ((0, 1), (0, 0)): F(-5, 2)}),
     "-2 X - {0,0} + 1/3 {0,1} - 5/2 [{0,1},{0,0}] + [{1,0},{0,0}]"),
    (TildeElement(6, 1, -1), "X - Y"),
    (TildeElement.zero(4), "0"),
    # [1, x^2] is written in the normal order, as -[x^2, 1].
    (PairSeries(4, {((1, 0), (0, 0)): 1, ((0, 1), (0, 0)): F(-5, 2),
                    ((1, 1), (0, 1)): 3, ((0, 0), (2, 0)): 1}),
     "-5/2 [y, 1] + [x, 1] - [x^2, 1] + 3 [x y, y]"),
    (PairSeries.zero(3), "0"),
], ids=[
    "BiSeries-mixed", "BiSeries-constant-1", "BiSeries-zero",
    "NCSeries-mixed", "NCSeries-constant-1", "NCSeries-zero",
    "LieSeries-mixed", "LieSeries-zero",
    "Metabelian-mixed", "Metabelian-no-X", "Metabelian-zero",
    "Tilde-mixed", "Tilde-generators", "Tilde-zero",
    "PairSeries-mixed", "PairSeries-zero",
])
def test_str_is_byte_exact_for_every_container(element, text):
    assert str(element) == text


@pytest.mark.parametrize("bad", ["1/2", 0.5, True])
def test_biseries_rejects_text_and_float_coefficients(bad):
    one = BiSeries.one(2)
    for build in (
        lambda: BiSeries(2, {(0, 0): bad}),
        lambda: BiSeries.constant(2, bad),
        lambda: one.substitute(x=(bad, 0)),
        lambda: one.substitute(y=(0, bad)),
        lambda: one * bad,
        lambda: bad * one,
        lambda: one + bad,
        lambda: one - bad,
    ):
        with pytest.raises(TypeError, match="rational scalar"):
            build()


def test_parse_rational_reads_text_and_integers_only():
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("0.1") == F(1, 10)
    assert parse_rational("+12") == 12
    assert parse_rational(7) == 7
    # One grammar on every Python version: sign, digits, then /digits or
    # .digits.  An exponent would be expanded in full by Fraction.
    for bad in ("1e100000000", "1E5", "2.5e-3", "1_000", " 1/2", "1 / 2", "1/2 ",
                "1/-2", ".5", "5.", "1/2/3", "", "\u0661", "inf", "nan"):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(bad)
    with pytest.raises(TypeError, match="rational scalar"):
        parse_rational(0.1)
    with pytest.raises(TypeError, match="rational scalar"):
        parse_rational(True)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_parse_int_reads_json_integers_only():
    assert parse_int(3) == 3
    assert parse_int(-2) == -2
    for bad in (0.5, 2.0, float("inf"), True, False, "3", None):
        with pytest.raises(TypeError, match="expected an integer"):
            parse_int(bad)


@pytest.mark.parametrize("cls, data", [
    (BiSeries, {"truncation": 2, "terms": [{"i": 0, "j": 1, "c": 0.1}]}),
    (NCSeries, {"truncation": 2, "terms": [{"word": "X", "c": 0.1}]}),
    (LieSeries,
     {"truncation": 2, "basis": "lyndon", "terms": [{"word": "X", "c": 0.1}]}),
    (MetabelianElement,
     {"truncation": 3, "X": 0.5, "terms": []}),
    (TildeElement,
     {"truncation": 4, "linear": [{"m": 0, "n": 0, "c": 0.1}]}),
], ids=["BiSeries", "NCSeries", "LieSeries", "MetabelianElement", "TildeElement"])
def test_from_json_dict_rejects_float_coefficients(cls, data):
    with pytest.raises(TypeError, match="rational scalar"):
        cls.from_json_dict(data)


@pytest.mark.parametrize("cls, data", [
    (BiSeries, {"truncation": 3, "terms": [{"i": 0.5, "j": 1, "c": "1"}]}),
    (NCSeries, {"truncation": 1e400, "terms": []}),
    (LieSeries, {"truncation": 2.0, "basis": "lyndon", "terms": []}),
    (MetabelianElement,
     {"truncation": 4, "terms": [{"k": True, "l": 0, "c": "1"}]}),
    (TildeElement,
     {"truncation": 6, "quadratic": [{"k": 0, "l": 1, "m": "1", "n": 0, "c": "1"}]}),
], ids=["BiSeries", "NCSeries", "LieSeries", "MetabelianElement", "TildeElement"])
def test_from_json_dict_rejects_non_integer_indices(cls, data):
    with pytest.raises(TypeError, match="expected an integer"):
        cls.from_json_dict(data)


@pytest.mark.parametrize("cls, data", [
    (BiSeries, {"truncation": 3, "terms": [{"i": 3, "j": 1, "c": "1"}]}),
    (NCSeries, {"truncation": 2, "terms": [{"word": "XYX", "c": "1"}]}),
    (LieSeries,
     {"truncation": 2, "basis": "lyndon", "terms": [{"word": "XXY", "c": "1"}]}),
    (MetabelianElement,
     {"truncation": 4, "terms": [{"k": 2, "l": 1, "c": "1"}]}),
    (TildeElement, {"truncation": 4, "linear": [{"m": 1, "n": 2, "c": "1"}]}),
    (TildeElement,
     {"truncation": 6, "quadratic": [{"k": 1, "l": 0, "m": 0, "n": 2, "c": "1"}]}),
], ids=["BiSeries", "NCSeries", "LieSeries", "MetabelianElement", "TildeElement-linear",
        "TildeElement-quadratic"])
def test_from_json_dict_rejects_terms_beyond_truncation(cls, data):
    # The constructors drop such terms; JSON that contradicts itself is refused.
    with pytest.raises(ValueError, match="beyond the declared truncation"):
        cls.from_json_dict(data)


@pytest.mark.parametrize("cls, data", [
    (BiSeries, {"truncation": 3, "terms": [{"i": 0, "j": 1, "c": "2"},
                                           {"i": 0, "j": 1, "c": "1"}]}),
    (NCSeries, {"truncation": 2, "terms": [{"word": "XY", "c": "1"},
                                           {"word": "XY", "c": "1"}]}),
    (LieSeries, {"truncation": 2, "basis": "lyndon",
                 "terms": [{"word": "XY", "c": "1"}, {"word": "XY", "c": "-1"}]}),
    (MetabelianElement, {"truncation": 4, "terms": [{"k": 1, "l": 0, "c": "1"},
                                                    {"k": 1, "l": 0, "c": "3"}]}),
    (TildeElement, {"truncation": 4, "linear": [{"m": 0, "n": 0, "c": "1"},
                                                {"m": 0, "n": 0, "c": "1"}]}),
    (TildeElement, {"truncation": 6, "quadratic": [
        {"k": 1, "l": 0, "m": 0, "n": 0, "c": "1"},
        {"k": 1, "l": 0, "m": 0, "n": 0, "c": "2"}]}),
], ids=["BiSeries", "NCSeries", "LieSeries", "MetabelianElement", "TildeElement-linear",
        "TildeElement-quadratic"])
def test_from_json_dict_rejects_repeated_terms(cls, data):
    # A dict would keep only the last entry of a repeated key.
    with pytest.raises(ValueError, match="repeated term"):
        cls.from_json_dict(data)


@pytest.mark.parametrize("word", [5, None, "XZ", "YX", ""])
def test_lie_series_from_json_dict_names_a_bad_word(word):
    data = {"truncation": 3, "basis": "lyndon", "terms": [{"word": word, "c": "1"}]}
    with pytest.raises(ValueError, match=f"not a Lyndon word over X and Y: {word!r}"):
        LieSeries.from_json_dict(data)


@pytest.mark.parametrize("cls, basis", [
    (BiSeries, "lyndon"),
    (NCSeries, "lyndon"),
    (NCSeries, "metabelian"),
    (LieSeries, "words"),
    (MetabelianElement, "lyndon"),
    (MetabelianElement, "words"),
    (TildeElement, "metabelian"),
], ids=["BiSeries-lyndon", "NCSeries-lyndon", "NCSeries-metabelian", "LieSeries-words",
        "MetabelianElement-lyndon", "MetabelianElement-words", "TildeElement-metabelian"])
def test_from_json_dict_refuses_another_containers_basis(cls, basis):
    # `bch --format json` says "lyndon"; a word series must not read it as words.
    data = {"truncation": 3, "basis": basis, "terms": []}
    with pytest.raises(ValueError, match=f"basis '{basis}' names another container"):
        cls.from_json_dict(data)


@pytest.mark.parametrize("cls, terms", [
    (BiSeries, {(0, 1): F(1, 2), (1, 0): 3}),
    (PairSeries, {((1, 0), (0, 0)): F(-1, 3)}),
    (NCSeries, {"": 1, "YX": F(1, 2)}),
    (LieSeries, {"XY": F(1, 2), "XYY": -1}),
    (MetabelianElement, {(0, 1): F(1, 2)}),
    (TildeElement, {(1, 0): F(1, 2)}),
], ids=["BiSeries", "PairSeries", "NCSeries", "LieSeries", "MetabelianElement",
        "TildeElement"])
def test_from_json_dict_accepts_its_own_or_no_basis(cls, terms):
    quotient = cls in (MetabelianElement, TildeElement)
    e = cls(4, 1, 2, terms) if quotient else cls(4, terms)
    data = e.to_json_dict()
    assert cls.from_json_dict(data) == e
    data.pop("basis", None)
    assert cls.from_json_dict(data) == e


@pytest.mark.parametrize("cls, data, message", [
    (BiSeries, {"truncation": -1, "terms": []}, "truncation must be nonnegative"),
    (NCSeries, {"truncation": -1, "terms": []}, "truncation must be nonnegative"),
    (LieSeries, {"truncation": -1, "basis": "lyndon", "terms": []},
     "truncation must be nonnegative"),
    (MetabelianElement, {"truncation": -1, "terms": []}, "truncation must be at least 1"),
    (TildeElement, {"truncation": -1}, "truncation must be at least 1"),
    (NCSeries, {"truncation": 3, "terms": [{"word": 5, "c": "1"}]},
     "a word is a string over X and Y"),
], ids=["BiSeries-negative", "NCSeries-negative", "LieSeries-negative",
        "MetabelianElement-negative", "TildeElement-negative", "NCSeries-int-word"])
def test_from_json_dict_gives_the_constructors_message(cls, data, message):
    with pytest.raises(ValueError, match=message):
        cls.from_json_dict(data)


# ---------------------------------------------------------------------------
# The truncated-series base, once for each of its four subclasses
# ---------------------------------------------------------------------------

# Four keys of total degrees 1, 1, 2 and 3 in each key language.
_KEYS = {
    BiSeries: [(1, 0), (0, 1), (1, 1), (2, 1)],
    NCSeries: ["X", "Y", "XY", "XXY"],
    LieSeries: ["X", "Y", "XY", "XXY"],
    PairSeries: [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((1, 1), (0, 0)), ((2, 1), (0, 0))],
}
_MALFORMED_KEY = {
    BiSeries: (-1, 2), NCSeries: (2, 7), LieSeries: "Z", PairSeries: ((-1, 0), (0, 0)),
}
_SERIES_TYPES = pytest.mark.parametrize(
    "cls", list(_KEYS), ids=[cls.__name__ for cls in _KEYS]
)


def _make(cls, n, coeffs):
    return cls(n, dict(zip(_KEYS[cls], coeffs)))


@_SERIES_TYPES
def test_sum_truncates_at_the_smaller_bound(cls):
    a = _make(cls, 3, [1, 2, 3, 4])
    b = _make(cls, 2, [F(1, 2), 0, -3, 0])
    for total in (a + b, b + a):
        assert total.truncation == 2
        assert total == _make(cls, 2, [F(3, 2), 2, 0, 0])
    assert (a - a).is_zero() and (a - a).truncation == 3
    assert a.agrees_with(_make(cls, 2, [1, 2, 3]))
    assert not a.agrees_with(_make(cls, 2, [1, 2, 0]))
    assert a.agrees_with(_make(cls, 2, [1, 2, 0]), through=1)


@_SERIES_TYPES
@pytest.mark.parametrize("bad", [0.5, True], ids=["float", "bool"])
def test_scalar_must_be_rational(cls, bad):
    a = _make(cls, 3, [1, 2, 3, 4])
    for build in (lambda: a * bad, lambda: bad * a, lambda: a + bad, lambda: a - bad,
                  lambda: cls(3, {_KEYS[cls][0]: bad})):
        with pytest.raises(TypeError, match="rational scalar"):
            build()
    assert F(-3, 2) * a == _make(cls, 3, [F(-3, 2), -3, F(-9, 2), -6]) == a * F(-3, 2)


def test_equality_is_false_across_container_types():
    series = [_make(cls, 3, [1, 0, 0, 0]) for cls in _KEYS]
    series += [cls.zero(3) for cls in _KEYS]
    for i, a in enumerate(series):
        for j, b in enumerate(series):
            assert (a == b) is (i == j), (a, b)


@_SERIES_TYPES
def test_degree_part_and_min_degree(cls):
    a = _make(cls, 3, [1, 2, 3, 4])
    assert a.min_degree() == 1
    assert cls.zero(3).min_degree() is None
    part = a.degree_part(2)
    assert type(part) is cls and part.truncation == 3
    assert part == _make(cls, 3, [0, 0, 3, 0])
    assert part.min_degree() == 2
    assert a.degree_part(3).min_degree() == 3
    assert a.degree_part(5).is_zero()


@_SERIES_TYPES
def test_truncate_refuses_to_raise_the_truncation(cls):
    a = _make(cls, 3, [1, 2, 3, 4])
    assert a.truncate(2) == _make(cls, 2, [1, 2, 3])
    assert a.truncate(3) == a
    with pytest.raises(ValueError, match="cannot raise truncation"):
        a.truncate(4)


def _four_terms(cls):
    """An element of ``cls`` at truncation 3 with four nonzero terms."""
    if cls is MetabelianElement:
        return MetabelianElement(3, 1, 2, {(0, 0): 3, (1, 0): 4})
    if cls is TildeElement:
        return TildeElement(3, 1, 2, {(0, 0): 3, (0, 1): 4})
    return _make(cls, 3, [1, 2, 3, 4])


@pytest.mark.parametrize(
    "cls", [*_KEYS, MetabelianElement, TildeElement], ids=lambda cls: cls.__name__
)
def test_immutability_error_names_the_class(cls):
    a = _four_terms(cls)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        a.truncation = 5
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        a._coeffs = {}
    assert a.truncation == 3
    assert repr(a) == f"{cls.__name__}(truncation=3, 4 terms)"


@pytest.mark.parametrize(
    "cls", [*_KEYS, MetabelianElement, TildeElement], ids=lambda cls: cls.__name__
)
@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3"], ids=["float", "whole-float", "bool", "str"])
def test_truncation_must_be_an_integer(cls, bad):
    # One rule for every constructor, the one the JSON reader applies.
    with pytest.raises(TypeError, match="expected an integer"):
        cls(bad)
    assert type(cls(3).truncation) is int


@_SERIES_TYPES
def test_malformed_keys_are_refused(cls):
    with pytest.raises((ValueError, TypeError)):
        cls(3, {_MALFORMED_KEY[cls]: 1})
    with pytest.raises(ValueError, match="truncation must be nonnegative"):
        cls(-1)


@_SERIES_TYPES
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.lists(_frac, min_size=4, max_size=4), min_size=3, max_size=3), _frac)
def test_additive_laws(cls, rows, k):
    a, b, c = (_make(cls, 3, row) for row in rows)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - b == a + (-b) == -(b - a)
    assert k * (a + b) == k * a + k * b
    assert (a + cls.zero(3)) == a


def test_pair_series_keeps_keys_in_normal_order():
    hi, lo = (1, 0), (0, 2)
    reversed_key = PairSeries(4, {(lo, hi): F(2, 3)})
    assert list(reversed_key.items()) == [((hi, lo), F(-2, 3))]
    assert reversed_key.coefficient(hi, lo) == F(-2, 3)
    assert reversed_key.coefficient(lo, hi) == F(2, 3)
    assert reversed_key == PairSeries(4, {(hi, lo): F(-2, 3)})
    assert PairSeries(4, {(hi, hi): 5}).is_zero()
    assert reversed_key.coefficient(hi, hi) == 0
    with pytest.raises(ValueError, match="negative basis index"):
        PairSeries(4, {((-1, 0), (-1, 0)): 1})
    merged = PairSeries(4, {(hi, lo): 5}) + PairSeries(4, {(lo, hi): 2})
    assert merged == PairSeries(4, {(hi, lo): 3})
    assert PairSeries(4, {(hi, lo): 5, (lo, hi): 5}).is_zero()
    # The sign flip never sees an unchecked coefficient: -True would be -1.
    for bad in (0.5, True):
        with pytest.raises(TypeError, match="rational scalar"):
            PairSeries(4, {(lo, hi): bad})


def test_pair_series_has_no_constant_term():
    s = PairSeries(4, {((1, 0), (0, 2)): 1})
    for refused in (lambda: s + 1, lambda: 1 - s, lambda: PairSeries.one(4)):
        with pytest.raises(TypeError, match="PairSeries has no constant term"):
            refused()


def test_constant_takes_truncation_then_value():
    # Like zero(truncation) and monomial(i, j, truncation, c).
    c = BiSeries.constant(6, F(1, 3))
    assert c.truncation == 6 and c.coefficient(0, 0) == F(1, 3)
    # The scalar is checked before the missing constant monomial.
    with pytest.raises(TypeError, match="rational scalar"):
        PairSeries.constant(4, 0.5)


# ---------------------------------------------------------------------------
# The quotient-element shape, once for each of its two subclasses
# ---------------------------------------------------------------------------

# Table terms of degrees 2, 3 and 5, each a multiple of one coefficient.
_QUOTIENT_TABLES = {
    MetabelianElement: lambda c: {"table": {(0, 0): c, (1, 0): 2 * c, (2, 1): -c}},
    TildeElement: lambda c: {
        "linear": {(0, 0): c, (1, 0): 2 * c},
        "quadratic": {((1, 0), (0, 0)): -c},
    },
}


@pytest.mark.parametrize("cls", list(_QUOTIENT_TABLES), ids=lambda cls: cls.__name__)
def test_quotient_elements_share_one_algebra(cls):
    def make(n, a, b, c):
        return cls(n, a, b, **_QUOTIENT_TABLES[cls](c))

    e = make(5, 1, -2, F(1, 3))
    short = make(3, F(1, 2), 1, 1)
    for total in (e + short, short + e):
        assert total.truncation == 3
        assert total == make(3, F(3, 2), -1, F(4, 3))
    parts = [e.degree_part(d) for d in range(1, 7)]
    assert [p.is_zero() for p in parts] == [False, False, False, True, False, True]
    assert all(p.truncation == 5 for p in parts)
    assert sum(parts, cls.zero(5)) == e
    assert (e - e).is_zero() and e - e == cls.zero(5)
    assert F(-2) * e == make(5, -2, 4, F(-2, 3)) == -(2 * e)
    for bad in (0.5, True):
        with pytest.raises(TypeError, match="rational scalar"):
            bad * e
    for name in ("a", "truncation"):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(e, name, 0)
    other = next(t for t in _QUOTIENT_TABLES if t is not cls)
    assert (cls.zero(5) == other.zero(5)) is False
    assert (cls(5, 1, 2) == other(5, 1, 2)) is False
