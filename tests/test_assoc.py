"""Tests for the noncommutative word-series oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbch.assoc import (
    NCSeries,
    _power_sum,
    bch_log_oracle,
    nc_exp,
    nc_log,
    zassenhaus_oracle,
)
from mbch.freelie import to_assoc

F = Fraction


def test_generator_product_and_truncation():
    x = NCSeries.generator("X", 2)
    y = NCSeries.generator("Y", 2)
    assert (x * y).coefficient("XY") == 1
    assert (x * y).coefficient("YX") == 0
    assert ((x * y) * x).is_zero()  # degree 3 beyond truncation 2


_words = st.text("XY", max_size=5)
# Mixed coprime denominators, given with either sign.
_coeffs = st.builds(
    Fraction,
    st.integers(-30, 30),
    st.sampled_from([1, 2, -3, 5, -7, 11, 13, 1001]),
)
_series = st.builds(
    lambda n, terms: NCSeries(n, {w: c for w, c in terms.items() if len(w) <= n}),
    st.integers(0, 5),
    st.dictionaries(_words, _coeffs, max_size=8),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_series, _series, _coeffs, st.integers(-5, 5))
def test_products_match_naive_fraction_loop(a, b, q, k):
    n = min(a.truncation, b.truncation)
    expected = {}
    for u, x in a.terms():
        for v, y in b.terms():
            if len(u) + len(v) <= n:
                expected[u + v] = expected.get(u + v, 0) + x * y
    product = a * b
    assert product.truncation == n
    assert dict(product.terms()) == {w: c for w, c in expected.items() if c}
    for scalar in (q, k):
        scaled = {w: scalar * c for w, c in a.terms() if scalar * c}
        assert dict((scalar * a).terms()) == scaled
        assert dict((a * scalar).terms()) == scaled


@pytest.mark.parametrize("bad", [
    lambda: NCSeries(2, {"X": 0.5}),
    lambda: 0.5 * NCSeries.generator("X", 2),
    lambda: NCSeries.generator("X", 2) * 0.5,
    lambda: NCSeries.generator("X", 2) + 0.5,
])
def test_rejects_floats(bad):
    with pytest.raises(TypeError, match="rational scalar"):
        bad()


def test_exp_coefficients_and_guard():
    e = nc_exp(NCSeries.generator("X", 5))
    fact = [1, 1, 2, 6, 24, 120]
    for n in range(6):
        assert e.coefficient("X" * n if n else "") == F(1, fact[n])
    with pytest.raises(ValueError, match="nonzero constant term"):
        nc_exp(NCSeries.one(3))


def test_log_guard_and_inverse_laws():
    with pytest.raises(ValueError, match="constant term must be 1"):
        nc_log(NCSeries.generator("X", 3))
    x = NCSeries.generator("X", 6)
    y = NCSeries.generator("Y", 6)
    a = x + 2 * y
    assert nc_log(nc_exp(a)) == a
    u = NCSeries.one(6) + x + y * x
    assert nc_exp(nc_log(u)) == u


def _exp_unbounded(a):
    n = a.truncation
    s = NCSeries.one(n)
    for k in range(n, 0, -1):
        s = NCSeries.one(n) + (a * s) * F(1, k)
    return s


def _log_unbounded(a):
    n = a.truncation
    z = a - NCSeries.one(n)
    s = NCSeries.zero(n)
    for k in range(n, 0, -1):
        s = z * (NCSeries.one(n) * F(1, k) - s)
    return s


@pytest.mark.parametrize("n", [0, 1, 6, 7])
@pytest.mark.parametrize("terms", [
    {"X": 1, "Y": F(-2, 3)},
    {"XY": 1, "YX": -1},
    {"XXY": F(1, 2), "YYX": F(3, 5), "XYX": -1},
    {"X": F(1, 3), "XY": 2, "YYY": F(-1, 7), "XYXY": 1},
    {"XY": F(2, 3), "XXY": -1, "XYYXY": F(1, 11)},
    {},
], ids=["valuation1", "valuation2", "valuation3", "mixed1", "mixed2", "zero"])
def test_bounded_exp_log_equal_unbounded_horner(n, terms):
    _assert_exp_log_match_horner(NCSeries(n, terms))


def _assert_exp_log_match_horner(a):
    assert nc_exp(a) == _exp_unbounded(a)
    u = NCSeries.one(a.truncation) + a
    assert nc_log(u) == _log_unbounded(u)


def _random_sparse_series(rng):
    """A sparse series of valuation 1-3 at truncation up to 9, with
    denominators up to 12."""
    n = rng.randint(1, 9)
    v = rng.randint(1, min(3, n))
    terms = {}
    for _ in range(rng.randint(1, 6)):
        length = rng.randint(v, n)
        word = "".join(rng.choice("XY") for _ in range(length))
        terms[word] = F(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))
    terms["".join(rng.choice("XY") for _ in range(v))] = F(rng.randint(1, 12), rng.randint(1, 12))
    return NCSeries(n, terms)


@pytest.mark.parametrize("seed", range(12))
def test_power_sum_exp_log_equal_unbounded_horner_random(seed):
    rng = random.Random(seed)
    for _ in range(3):
        _assert_exp_log_match_horner(_random_sparse_series(rng))


@pytest.mark.parametrize("seed", range(8))
def test_power_sum_equals_direct_sum_of_powers(seed):
    # Horner's rule with its length cuts against sum_k f_k a^k term by
    # term, with weights that do not vanish past the last useful power.
    rng = random.Random(100 + seed)
    for _ in range(3):
        a = _random_sparse_series(rng)
        top = rng.randint(0, a.truncation // a.min_degree() + 2)
        weights = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(top + 1)]
        power = NCSeries.one(a.truncation)
        direct = NCSeries.zero(a.truncation)
        for f in weights:
            direct = direct + power * f
            power = power * a
        assert _power_sum(a, weights) == direct


@pytest.mark.parametrize("key", [(2, 7), (-1, 0), "XZ", 5],
                         ids=["packed", "negative-packed", "bad-letter", "int"])
def test_a_key_is_a_word_over_x_and_y(key):
    with pytest.raises((TypeError, ValueError)):
        NCSeries(3, {key: 5})
    with pytest.raises((TypeError, ValueError)):
        NCSeries(3, {"XY": 1, key: 5})


def test_a_word_lookup_or_json_word_must_be_over_x_and_y():
    s = NCSeries.generator("X", 3)
    with pytest.raises(ValueError):
        s.coefficient("XZ")
    data = {"truncation": 3, "basis": "words", "terms": [{"word": "XZ", "c": "1"}]}
    with pytest.raises(ValueError):
        NCSeries.from_json_dict(data)


def test_coefficient_beyond_truncation():
    s = NCSeries.generator("X", 3)
    with pytest.raises(ValueError, match="word beyond truncation"):
        s.coefficient("XXXX")


def test_bch_log_oracle_low_degrees():
    h = bch_log_oracle(2)
    assert h.coefficient("X") == 1
    assert h.coefficient("Y") == 1
    assert h.coefficient("XY") == F(1, 2)
    assert h.coefficient("YX") == F(-1, 2)
    assert h.coefficient("XX") == 0
    # Frozen from a hand expansion of log(e^X e^Y): splitting the word
    # X^2 Y^2 over the powers of z = e^X e^Y - 1 gives
    # 1/4 - (1/2)(5/4) + (1/3)(2) - (1/4)(1) = 1/24, matching the
    # classical degree-4 term -[X,[Y,[X,Y]]]/24.
    assert bch_log_oracle(4).coefficient("XXYY") == F(1, 24)


def test_bch_oracle_antisymmetry():
    # Substituting (X, Y) -> (-Y, -X) is log of the inverse product.
    h = bch_log_oracle(8)
    assert h.subst_negswap() == -h


def test_negswap_is_involution():
    s = NCSeries(4, {"XXY": F(2, 3), "YX": 1})
    assert s.subst_negswap().subst_negswap() == s


def test_json_and_str():
    s = NCSeries(3, {"XY": F(1, 2), "X": 1})
    d = s.to_json_dict()
    assert d["basis"] == "words"
    assert [t["word"] for t in d["terms"]] == ["X", "XY"]
    assert NCSeries.from_json_dict(d) == s
    assert str(s) == "X + 1/2 XY"
    assert str(NCSeries.zero(2)) == "0"


def test_zassenhaus_oracle_first_factor_and_reconstruction():
    n = 6
    factors = zassenhaus_oracle(n)
    assert len(factors) == n - 1
    from mbch.freelie import LieSeries

    assert factors[0] == LieSeries(n, {"XY": F(-1, 2)})
    x = NCSeries.generator("X", n)
    y = NCSeries.generator("Y", n)
    prod = nc_exp(x) * nc_exp(y)
    for c in factors:
        prod = prod * nc_exp(to_assoc(c, n))
    assert prod == nc_exp(x + y)


def test_zassenhaus_oracle_degree_nine_reconstructs_exp_of_sum():
    n = 9
    x = NCSeries.generator("X", n)
    y = NCSeries.generator("Y", n)
    prod = nc_exp(x) * nc_exp(y)
    for d, c in enumerate(zassenhaus_oracle(n), start=2):
        assert all(len(w) == d for w, _ in to_assoc(c, n).terms())
        prod = prod * nc_exp(to_assoc(c, n))
    assert prod == nc_exp(x + y)


def test_zassenhaus_oracle_residual_is_empty():
    n = 7
    x = NCSeries.generator("X", n)
    y = NCSeries.generator("Y", n)
    r = nc_exp(-y) * nc_exp(-x) * nc_exp(x + y)
    for c in zassenhaus_oracle(n):
        r = nc_exp(-to_assoc(c, n)) * r
    assert nc_log(r).is_zero()
