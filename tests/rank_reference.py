"""Row-reduction reference for the ideals of the free Lie algebra.

The tests compare the factor rule of ``mbch.freelie._ideal_level``, and
``project``, against the span of explicit brackets: the rank of a set of
sparse exact vectors by Gauss elimination, and homogeneous spanning sets
of L'' = [L',L'] and of [L',L''] in Lyndon coordinates.
"""

from fractions import Fraction
from typing import Iterable

from mbch.freelie import _IDEALS, LieSeries, _add_lyndon_bracket, _lyndon_bracket, lyndon_words


def span_rank(vectors: Iterable[dict]) -> int:
    """The rank of sparse exact vectors, by incremental Gauss elimination."""
    pivots: dict = {}
    for vec in vectors:
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            key = min(vec)
            c = vec[key]
            if key not in pivots:
                pivots[key] = {k: Fraction(v) / c for k, v in vec.items()}
                break
            for k, v in pivots[key].items():
                nv = vec.get(k, 0) - c * v
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
    return len(pivots)


def ideal_spanning_coords(ideal: str, degree: int) -> list[dict[str, int]]:
    """Homogeneous spanning set of the ideal in the given degree, in Lyndon
    coordinates read off the Lyndon bracket table.

    metabelian: [[L,L],[L,L]], spanned by [u, v] over Lyndon basis
    elements u, v of degree >= 2.  deeper: [[L,L],[[L,L],[L,L]]]-style
    brackets [u,[v,w]] with u, v, w of degree >= 2.
    """
    if ideal not in _IDEALS:
        raise ValueError(f"unknown ideal {ideal!r}")
    out = []
    if ideal == "metabelian":
        for d1 in range(2, degree - 1):
            d2 = degree - d1
            if d2 < d1:
                break
            for u in lyndon_words(d1):
                for v in lyndon_words(d2):
                    if d1 == d2 and u >= v:
                        continue
                    out.append(_lyndon_bracket(u, v))
    else:
        for d1 in range(2, degree - 3):
            for d2 in range(2, degree - d1 - 1):
                d3 = degree - d1 - d2
                if d3 < d2:
                    break
                for u in lyndon_words(d1):
                    for v in lyndon_words(d2):
                        for w in lyndon_words(d3):
                            if d2 == d3 and v >= w:
                                continue
                            coords: dict[str, int] = {}
                            _add_lyndon_bracket(coords, {u: 1}, _lyndon_bracket(v, w))
                            out.append(coords)
    return out


def ideal_spanning_elements(ideal: str, degree: int) -> list[LieSeries]:
    """The spanning set of ``ideal_spanning_coords`` as series cut at the
    degree."""
    return [LieSeries(degree, c) for c in ideal_spanning_coords(ideal, degree)]
