"""The storage rule: one positive denominator over coprime integer numerators.

Each value is built several ways (from Fractions, from unreduced integer
multiples, as sums, differences, scalar multiples, products, through
``substitute``, ``shift``, ``degree_part``, ``truncate`` and ``padded``)
next to the ``Fraction`` dict that the same operation gives term by term.
Every result keeps the storage rule, ``==`` holds exactly when the
truncations and ``dict(items())`` agree, and ``str``, ``to_json_dict`` and
``to_csv`` equal what the codec renders from the ``Fraction`` dict itself,
as it did when each term was stored as a ``Fraction``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from canonical import assert_canonical
from mbch.assoc import NCSeries
from mbch.freelie import LieSeries, lyndon_words
from mbch.metabelian import MetabelianElement
from mbch.series import BiSeries, PairSeries, _Coded
from mbch.tilde import TildeElement

F = Fraction

_index = st.integers(0, 3)
_KEYS = {
    BiSeries: st.tuples(_index, _index),
    PairSeries: st.tuples(st.tuples(_index, _index), st.tuples(_index, _index)),
    NCSeries: st.text("XY", max_size=4),
    LieSeries: st.sampled_from([w for d in range(1, 6) for w in lyndon_words(d)]),
}
_value = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=12)
)
_scalar = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool)


class _FractionStore:
    """Terms stored as one ``Fraction`` per key, rendered by the codec's
    own methods: the rendering every container had before the storage
    rule."""

    __str__ = _Coded.__str__
    to_json_dict = _Coded.to_json_dict
    to_csv = _Coded.to_csv

    def __init__(self, like, truncation, terms=None, scalars=(), tables=()):
        self._CODEC, self._degree = like._CODEC, getattr(like, "_degree", None)
        self._terms = terms
        self._parts = truncation, scalars, (self,) if terms is not None else tables

    def _codec_parts(self):
        return self._parts

    def items(self):
        return self._terms.items()


def _clean(cls, n, coeffs) -> dict:
    """The Fraction dict a series of type ``cls`` at truncation ``n`` holds
    for ``coeffs``: pair keys in normal order, terms beyond ``n`` and
    zeros dropped."""
    out: dict = {}
    for k, c in coeffs.items():
        if cls is PairSeries and k[0] <= k[1]:
            k, c = (k[1], k[0]), (-c if k[0] != k[1] else 0)
        out[k] = out.get(k, 0) + F(c)
    return {k: c for k, c in out.items() if c and cls._degree(k) <= n}


def _merge(*dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, c in d.items():
            out[k] = out.get(k, 0) + c
    return out


def _check(cases, cls) -> None:
    """Each (value, truncation, Fraction dict) case keeps the rule, holds the
    dict and renders as it; ``==`` follows the dicts over every pair."""
    for value, n, terms in cases:
        assert_canonical(value)
        assert (value.truncation, dict(value.items())) == (n, terms)
        ref = _FractionStore(cls, n, terms)
        assert str(value) == str(ref)
        assert value.to_json_dict() == ref.to_json_dict()
        assert value.to_csv() == ref.to_csv()
    for x, _, _ in cases:
        for y, _, _ in cases:
            same = (x.truncation, dict(x.items())) == (y.truncation, dict(y.items()))
            assert (x == y) is same


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(list(_KEYS)), st.integers(1, 5), _scalar, st.integers(2, 12))
def test_every_way_to_build_a_series_stores_the_same_integers(data, cls, n, s, m):
    d1, d2 = (data.draw(st.dictionaries(_KEYS[cls], _value, max_size=6)) for _ in "ab")
    a, b = cls(n, d1), cls(n, d2)
    e1, e2 = _clean(cls, n, d1), _clean(cls, n, d2)
    cases = [
        (a, n, e1),
        (cls(n, {k: m * c for k, c in d1.items()}) * F(1, m), n, e1),
        (a + b, n, _clean(cls, n, _merge(e1, e2))),
        ((a + b) - b, n, e1),
        (a - a, n, {}),
        (a * s, n, _clean(cls, n, {k: s * c for k, c in e1.items()})),
        (sum((a.degree_part(d) for d in range(n + 1)), cls.zero(n)), n, e1),
        (a.degree_part(1), n, {k: c for k, c in e1.items() if cls._degree(k) == 1}),
        (a.truncate(n - 1), n - 1, _clean(cls, n - 1, e1)),
        (a.padded(n + 1), n + 1, e1),
        (a.padded(n - 1).padded(n), n, _clean(cls, n - 1, e1)),
    ]
    if cls in (BiSeries, NCSeries):
        product: dict = {}
        for u, x in e1.items():
            for v, y in e2.items():
                w = u + v if cls is NCSeries else (u[0] + v[0], u[1] + v[1])
                product[w] = product.get(w, 0) + x * y
        cases.append((a * b, n, _clean(cls, n, product)))
        cases.append((a * cls.one(n), n, e1))
    if cls is BiSeries:
        p, q = F(1, m), -s
        scaled = {(i, j): c * p**i * q**j for (i, j), c in e1.items()}
        cases.append((a.substitute(x=(p, 0), y=(0, q)), n, _clean(cls, n, scaled)))
        swapped = {(j, i): c for (i, j), c in e1.items()}
        cases.append((a.substitute(x=(0, 1), y=(1, 0)), n, swapped))
        cases.append((a.shift(1, 2), n + 3, {(i + 1, j + 2): c for (i, j), c in e1.items()}))
    _check(cases, cls)


_ELEMENTS = {
    MetabelianElement: [st.tuples(_index, _index)],
    TildeElement: [st.tuples(_index, _index), _KEYS[PairSeries]],
}


def _element_parts(e) -> tuple:
    return (e.truncation, e.a, e.b, *(dict(t.items()) for t in e._tables()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(list(_ELEMENTS)), st.integers(1, 9), _scalar, st.integers(2, 12))
def test_every_way_to_build_a_quotient_element_stores_the_same_integers(data, cls, n, s, m):
    def draw():
        a, b = data.draw(_value), data.draw(_value)
        return a, b, [data.draw(st.dictionaries(k, _value, max_size=5)) for k in _ELEMENTS[cls]]

    (a1, b1, t1), (a2, b2, t2) = draw(), draw()
    x, y = cls(n, a1, b1, *t1), cls(n, a2, b2, *t2)
    specs = cls._CODEC.tables

    def expected(a, b, tables):
        cut = [_clean(spec.series, n - spec.offset, t) for spec, t in zip(specs, tables)]
        return (n, F(a), F(b), *cut)

    e1, e2 = expected(a1, b1, t1), expected(a2, b2, t2)
    cases = [
        (x, e1),
        (F(1, m) * (m * x), e1),
        (F(1, m) * cls(n, m * a1, m * b1, *[{k: m * c for k, c in t.items()} for t in t1]), e1),
        (x + y, expected(a1 + a2, b1 + b2, [_merge(p, q) for p, q in zip(e1[3:], e2[3:])])),
        ((x + y) - y, e1),
        (s * x, expected(s * a1, s * b1, [{k: s * c for k, c in t.items()} for t in e1[3:]])),
        (sum((x.degree_part(d) for d in range(1, n + 1)), cls.zero(n)), e1),
    ]
    for value, parts in cases:
        assert_canonical(value)
        assert _element_parts(value) == parts
        tables = [
            _FractionStore(spec.series, max(n - spec.offset, 0), terms)
            for spec, terms in zip(specs, parts[3:])
        ]
        ref = _FractionStore(cls, n, scalars=parts[1:3], tables=tables)
        assert str(value) == str(ref)
        assert value.to_json_dict() == ref.to_json_dict()
        assert value.to_csv() == ref.to_csv()
    for v, _ in cases:
        for w, _ in cases:
            assert (v == w) is (_element_parts(v) == _element_parts(w))
