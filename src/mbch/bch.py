"""Classical constructions of log(e^X e^Y) in the free Lie algebra.

Two independent routes are provided.  ``bch_recursive`` runs the
derivation recursion: with D the derivation sending X to 0 and Y to the
series ``hausdorff_h1``, the pieces H_0 = Y, H_m = D(H_{m-1})/m sum to
the full series, and H_m collects exactly the terms of degree m in X.
It runs on Lyndon coordinates (``Derivation`` acts on the Lyndon basis)
in ``_hausdorff_steps``, the step loop ``tilde`` shares, once per degree.
``bch_dynkin`` brackets the word series of the noncommutative oracle
``assoc.bch_log_oracle`` by Dynkin's map, whose chains enter the Lyndon
basis through ``to_lyndon_coords``.  The recursion shares nothing with
the word series; the test suite checks it against both.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial
from typing import Iterator

from .assoc import bch_log_oracle
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


def _hausdorff_steps(derive, start, truncation: int) -> Iterator:
    """Yield H_0 = start, then H_m = derive(H_{m-1}) / m for m up to the
    truncation, stopping at the first step that is zero."""
    h = start
    yield h
    for m in range(1, truncation + 1):
        h = Fraction(1, m) * derive(h)
        if h.is_zero():
            return
        yield h


@functools.cache
def bch_recursive_steps(truncation: int) -> tuple[LieSeries, ...]:
    """H_0, H_1, ... of the derivation recursion, cut at the truncation.

    H_m is homogeneous of degree m in X (each substitution of the image
    of Y consumes one Y and introduces exactly one X), so every Lyndon
    word of H_m holds m letters X.  ``Derivation`` maps coordinates to
    coordinates, so the term count stays bounded by the number of Lyndon
    words of each degree.  Cached per truncation.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    d = Derivation(None, hausdorff_h1(truncation), truncation)
    return tuple(_hausdorff_steps(d, LieSeries(truncation, {"Y": 1}), truncation))


def bch_recursive(truncation: int) -> LieSeries:
    """log(e^X e^Y) through the given degree: the sum of the cached steps."""
    return sum(bch_recursive_steps(truncation), LieSeries.zero(truncation))


def bch_dynkin(truncation: int) -> LieSeries:
    """log(e^X e^Y) through the given degree: Dynkin's bracketing of the
    cached word series ``bch_log_oracle``.

    Bracketing a word w into its right-nested chain [w] sends a Lie
    polynomial of degree d to d times itself (Dynkin-Specht-Wever), so
    the word w with coefficient c enters as the chain c [w] / |w|.  A
    word ending in a repeated letter, whose chain vanishes, is dropped;
    the chains reach the Lyndon basis through the bracket table, not by
    the triangular elimination of ``bch --method oracle``.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    words = bch_log_oracle(truncation).items()
    chains = {w: c / len(w) for w, c in words if w[-2:] not in ("XX", "YY")}
    return LieSeries(truncation, to_lyndon_coords(chains))
