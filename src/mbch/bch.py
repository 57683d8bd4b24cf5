"""Classical constructions of log(e^X e^Y) in the free Lie algebra.

Two independent routes are provided.  ``bch_recursive`` runs the
derivation recursion: with D the derivation sending X to 0 and Y to the
series ``hausdorff_h1``, the pieces H_0 = Y, H_m = D(H_{m-1})/m sum to
the full series, and H_m collects exactly the terms of degree m in X.
It runs on Lyndon coordinates (``Derivation`` acts on the Lyndon basis).
``bch_dynkin`` evaluates the explicit double sum over tuples of block
exponents, as a dynamic program over words whose chains enter the
Lyndon basis through ``to_lyndon_coords``.  Both return a ``LieSeries``
and agree, word for word, with the noncommutative oracle
``assoc.bch_log_oracle``; the test suite checks all three against each
other.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterator

from .series import bernoulli
from .freelie import Derivation, LieSeries, to_lyndon_coords

__all__ = ["hausdorff_h1", "bch_recursive", "bch_recursive_steps", "bch_dynkin"]


def hausdorff_h1(truncation: int) -> LieSeries:
    """First derivation image: X + sum of (B_n / n!) [Y^n X], n >= 1.

    Terms are kept through total degree ``truncation``; the degree n + 1
    chain [Y^n X] therefore appears for n up to truncation - 1.  Odd
    Bernoulli numbers beyond B_1 vanish, so only n = 1 and even n
    contribute.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    chains = {"X": 1}
    for n in range(1, truncation):
        chains["Y" * n + "X"] = bernoulli(n) / factorial(n)
    return LieSeries(truncation, to_lyndon_coords(chains))


def bch_recursive_steps(truncation: int) -> Iterator[LieSeries]:
    """Yield H_0, H_1, ... of the derivation recursion, cut at the truncation.

    H_m is homogeneous of degree m in X (each substitution of the image
    of Y consumes one Y and introduces exactly one X), so every Lyndon
    word of H_m holds m letters X.  ``Derivation`` maps coordinates to
    coordinates, so the term count stays bounded by the number of Lyndon
    words of each degree.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    d = Derivation(None, hausdorff_h1(truncation), truncation)
    h = LieSeries(truncation, {"Y": 1})
    yield h
    for m in range(1, truncation + 1):
        h = Fraction(1, m) * d(h)
        if h.is_zero():
            return
        yield h


def bch_recursive(truncation: int) -> LieSeries:
    """log(e^X e^Y) through the given degree, by the derivation recursion."""
    total: dict[str, Fraction] = {}
    for h in bch_recursive_steps(truncation):
        for w, c in h.items():
            total[w] = total.get(w, 0) + c
    return LieSeries(truncation, total)


def bch_dynkin(truncation: int) -> LieSeries:
    """log(e^X e^Y) through the given degree, by the explicit tuple sum.

    Sums, over every tuple (p_1, q_1, ..., p_m, q_m) with p_i + q_i > 0
    and total degree d = sum(p_i + q_i) at most the truncation,

        (-1)^(m-1) / m * [X^{p_1} Y^{q_1} ... X^{p_m} Y^{q_m}]
            / (d * p_1! q_1! ... p_m! q_m!)

    as a dynamic program over words that appends the last block.  For
    the m-block tuples spelling w, layer_m[w] = |w|! sum 1/(p_1! ... q_m!)
    is a sum of multinomials, an integer, and word w carries
    sum_m (-1)^(m-1) layer_m[w] / (m |w| |w|!).  No tuple is filtered out;
    a word ending in a repeated letter, whose long commutator vanishes,
    is dropped, and the other chains are rewritten in the Lyndon basis.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    n = truncation
    scale = lcm(*range(1, n + 1))
    totals: dict[str, int] = {}
    layer = {"": 1}
    for m in range(1, n + 1):
        nxt: dict[str, int] = {}
        for word, c in layer.items():
            for size in range(1, n - len(word) + 1):
                # (|w|+p+q)! / (|w|! p! q!) = C(|w|+size, size) C(size, p)
                grow = c * comb(len(word) + size, size)
                for p in range(size + 1):
                    w = word + "X" * p + "Y" * (size - p)
                    nxt[w] = nxt.get(w, 0) + grow * comb(size, p)
        for word, c in nxt.items():
            totals[word] = totals.get(word, 0) + (-1) ** (m - 1) * (scale // m) * c
        layer = nxt

    chains = {
        word: Fraction(c, scale * len(word) * factorial(len(word)))
        for word, c in totals.items()
        if c and word[-2:] not in ("XX", "YY")
    }
    return LieSeries(truncation, to_lyndon_coords(chains))
