"""Truncated noncommutative power series over the words in X, Y.

This is the universal-enveloping side of the package: an independent
word-by-word model used as the oracle that every closed Lie-side formula
is checked against.  Words are stored packed as ``(length, bits)`` with
bit i = 1 when position i holds Y, so keys hash fast and stay tiny.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm
from typing import Iterator

from .series import (
    _as_fraction,
    _refuse_beyond,
    format_rational,
    format_terms,
    parse_int,
    parse_rational,
)

__all__ = [
    "NCSeries",
    "word_from_str",
    "word_to_str",
    "nc_exp",
    "nc_log",
    "bch_log_oracle",
    "zassenhaus_oracle",
]

Word = tuple[int, int]


def word_from_str(s: str) -> Word:
    bits = 0
    for i, ch in enumerate(s):
        if ch == "Y":
            bits |= 1 << i
        elif ch != "X":
            raise ValueError(f"bad letter {ch!r} in word")
    return (len(s), bits)


def word_to_str(w: Word) -> str:
    length, bits = w
    return "".join("Y" if bits >> i & 1 else "X" for i in range(length))


def _scaled(coeffs: dict) -> tuple[int, dict]:
    """(L, {k: L * c}) with L the least common multiple of the denominators,
    so that inner loops run on integer numerators."""
    scale = lcm(*(c.denominator for c in coeffs.values()))
    return scale, {k: c.numerator * (scale // c.denominator) for k, c in coeffs.items()}


class NCSeries:
    """Noncommutative series truncated at a total word length."""

    __slots__ = ("truncation", "_coeffs")

    def __init__(self, truncation: int, coeffs: dict | None = None):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        object.__setattr__(self, "truncation", int(truncation))
        clean: dict[Word, Fraction] = {}
        if coeffs:
            for w, v in coeffs.items():
                if w[0] > truncation:
                    continue
                c = _as_fraction(v)
                if c:
                    clean[w] = c
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("NCSeries is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int) -> "NCSeries":
        return cls(truncation)

    @classmethod
    def one(cls, truncation: int) -> "NCSeries":
        return cls(truncation, {(0, 0): 1})

    @classmethod
    def generator(cls, letter: str, truncation: int) -> "NCSeries":
        if letter not in ("X", "Y"):
            raise ValueError("generator must be X or Y")
        return cls(truncation, {(1, 1 if letter == "Y" else 0): 1})

    @classmethod
    def from_strings(cls, coeffs: dict, truncation: int) -> "NCSeries":
        return cls(truncation, {word_from_str(w): c for w, c in coeffs.items()})

    # -- inspection ----------------------------------------------------------

    def coefficient(self, word: str | Word) -> Fraction:
        w = word_from_str(word) if isinstance(word, str) else word
        if w[0] > self.truncation:
            raise ValueError("word beyond truncation")
        return self._coeffs.get(w, Fraction(0))

    def terms(self) -> Iterator[tuple[str, Fraction]]:
        """Nonzero terms sorted by (length, word string)."""
        keyed = sorted(
            ((w[0], word_to_str(w)), c) for w, c in self._coeffs.items()
        )
        for (_, s), c in keyed:
            yield s, c

    def is_zero(self) -> bool:
        return not self._coeffs

    def min_degree(self) -> int | None:
        return min((w[0] for w in self._coeffs), default=None)

    def degree_part(self, d: int) -> "NCSeries":
        return NCSeries(self.truncation, {w: c for w, c in self._coeffs.items() if w[0] == d})

    def word_dict(self) -> dict[Word, Fraction]:
        return dict(self._coeffs)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other) -> "NCSeries":
        if not isinstance(other, NCSeries):
            other = NCSeries(self.truncation, {(0, 0): _as_fraction(other)})
        n = min(self.truncation, other.truncation)
        out = {w: c for w, c in self._coeffs.items() if w[0] <= n}
        for w, c in other._coeffs.items():
            if w[0] <= n:
                out[w] = out.get(w, Fraction(0)) + c
        return NCSeries(n, out)

    __radd__ = __add__

    def __neg__(self) -> "NCSeries":
        return NCSeries(self.truncation, {w: -c for w, c in self._coeffs.items()})

    def __sub__(self, other) -> "NCSeries":
        if not isinstance(other, NCSeries):
            other = NCSeries(self.truncation, {(0, 0): _as_fraction(other)})
        return self + (-other)

    def __rsub__(self, other) -> "NCSeries":
        return (-self) + other

    def __mul__(self, other) -> "NCSeries":
        if not isinstance(other, NCSeries):
            c = _as_fraction(other)
            return NCSeries(self.truncation, {w: c * v for w, v in self._coeffs.items()})
        n = min(self.truncation, other.truncation)
        s1, left = _scaled(self._coeffs)
        s2, right = _scaled(other._coeffs)
        right_by_length = sorted(right.items())
        out: dict[Word, int] = {}
        for (l1, b1), c1 in left.items():
            rest = n - l1
            for (l2, b2), c2 in right_by_length:
                if l2 > rest:
                    break
                w = (l1 + l2, b1 | b2 << l1)
                out[w] = out.get(w, 0) + c1 * c2
        scale = s1 * s2
        return NCSeries(n, {w: Fraction(c, scale) for w, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCSeries)
            and self.truncation == other.truncation
            and self._coeffs == other._coeffs
        )

    __hash__ = None

    def agrees_with(self, other: "NCSeries", through: int | None = None) -> bool:
        n = min(self.truncation, other.truncation)
        if through is not None:
            n = min(n, through)
        for w in set(self._coeffs) | set(other._coeffs):
            if w[0] <= n and self._coeffs.get(w, 0) != other._coeffs.get(w, 0):
                return False
        return True

    def truncate(self, n: int) -> "NCSeries":
        if n > self.truncation:
            raise ValueError("cannot raise truncation")
        return NCSeries(n, self._coeffs)

    def subst_negswap(self) -> "NCSeries":
        """Substitute X -> -Y, Y -> -X letterwise (word keeps its positions)."""
        out = {}
        for (l, b), c in self._coeffs.items():
            mask = (1 << l) - 1
            out[(l, b ^ mask)] = c if l % 2 == 0 else -c
        return NCSeries(self.truncation, out)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "truncation": self.truncation,
            "basis": "words",
            "terms": [{"word": w, "c": format_rational(c)} for w, c in self.terms()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NCSeries":
        n = parse_int(data["truncation"])
        coeffs = {word_from_str(t["word"]): parse_rational(t["c"]) for t in data["terms"]}
        _refuse_beyond(n, (length for length, _ in coeffs))
        return cls(n, coeffs)

    def __str__(self) -> str:
        return format_terms((c, _compress_word(w)) for w, c in self.terms())

    def __repr__(self) -> str:
        return f"NCSeries(truncation={self.truncation}, {len(self._coeffs)} terms)"


def _compress_word(s: str) -> str:
    """Run-length notation: XXYX -> X^2YX."""
    out = []
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        out.append(s[i] if j - i == 1 else f"{s[i]}^{j - i}")
        i = j
    return "".join(out)


# ---------------------------------------------------------------------------
# exp / log
# ---------------------------------------------------------------------------

def nc_exp(a: NCSeries) -> NCSeries:
    """exp of a series with zero constant term."""
    if a.coefficient((0, 0)):
        raise ValueError("nonzero constant term")
    n = a.truncation
    s = NCSeries.one(n)
    if a.is_zero():
        return s
    # a^k vanishes under the truncation once k * min_degree > n.
    for k in range(n // a.min_degree(), 0, -1):
        s = NCSeries.one(n) + (a * s) * Fraction(1, k)
    return s


def nc_log(a: NCSeries) -> NCSeries:
    """log of a series with constant term 1, bounded as in ``nc_exp``."""
    if a.coefficient((0, 0)) != 1:
        raise ValueError("constant term must be 1")
    n = a.truncation
    z = a - NCSeries.one(n)
    s = NCSeries.zero(n)
    if z.is_zero():
        return s
    for k in range(n // z.min_degree(), 0, -1):
        s = z * (NCSeries.one(n) * Fraction(1, k) - s)
    return s


@functools.cache
def bch_log_oracle(truncation: int) -> NCSeries:
    """log(e^X e^Y) computed purely on words."""
    x = NCSeries.generator("X", truncation)
    y = NCSeries.generator("Y", truncation)
    return nc_log(nc_exp(x) * nc_exp(y))


def zassenhaus_oracle(truncation: int) -> list:
    """Iteratively stripped factors C_2 ... C_N of e^(X+Y) = e^X e^Y prod e^(C_n).

    Each factor is returned as a homogeneous LieSeries in Lyndon
    coordinates, extracted from the word-level residual.
    """
    from .freelie import LieSeries, from_lyndon_coords, lyndon_coords_of_assoc, to_assoc

    n = truncation
    x = NCSeries.generator("X", n)
    y = NCSeries.generator("Y", n)
    r = nc_exp(-y) * nc_exp(-x) * nc_exp(x + y)
    out = []
    for d in range(2, n + 1):
        part = nc_log(r).degree_part(d)
        coords = lyndon_coords_of_assoc(part)
        c_d = from_lyndon_coords(coords)
        out.append(LieSeries.from_element(c_d, n))
        r = nc_exp(-to_assoc(c_d, n)) * r
    return out
