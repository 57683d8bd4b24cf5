"""Truncated noncommutative power series over the words in X, Y.

This is the universal-enveloping side of the package: an independent
word-by-word model used as the oracle that every closed Lie-side formula
is checked against.  A word is a ``str`` over the letters X and Y, as
everywhere else in the package; a ``str`` caches its hash, so dict
lookups on word keys stay cheap.

The kernels run on integers.  A product scales each factor once by the
least common multiple of its denominators and multiplies integer word
dicts in ``_word_product``; ``nc_exp`` and ``nc_log`` are power sums
sum_k f_k a^k, evaluated by Horner's rule in integers over one common
denominator with the same loop, so each output word becomes a
``Fraction`` once.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, lcm
from typing import Iterator

from .series import TruncatedSeries, _Codec, _Table, format_terms

__all__ = [
    "NCSeries",
    "nc_exp",
    "nc_log",
    "bch_log_oracle",
    "zassenhaus_oracle",
]

_NEGSWAP = str.maketrans("XY", "YX")


def _scaled(coeffs: dict) -> tuple[int, dict]:
    """(L, {k: L * c}) with L the least common multiple of the denominators,
    so that inner loops run on integer numerators."""
    scale = lcm(*(c.denominator for c in coeffs.values()))
    return scale, {k: c.numerator * (scale // c.denominator) for k, c in coeffs.items()}


def _all_words(keys) -> bool:
    """Whether every key is a word over X and Y, in one C-level pass: join
    raises on a key that is not a ``str``, strip leaves a bad letter."""
    try:
        return not "".join(keys).strip("XY")
    except TypeError:
        return False


class NCSeries(TruncatedSeries):
    """Noncommutative series truncated at a total word length.

    A key is a word, a ``str`` over X and Y; the empty word ``""`` is the
    constant term.  A key of another type or with another letter is
    refused on construction.
    """

    __slots__ = ()
    _degree = staticmethod(len)
    _constant_key = ""
    _CODEC = _Codec("words", (), (_Table("terms", "word"),))

    def __init__(self, truncation: int, coeffs: dict | None = None):
        if coeffs and not _all_words(coeffs):
            raise ValueError("a word is a string over X and Y")
        super().__init__(truncation, coeffs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def generator(cls, letter: str, truncation: int) -> "NCSeries":
        if letter not in ("X", "Y"):
            raise ValueError("generator must be X or Y")
        return cls(truncation, {letter: 1})

    # -- inspection ----------------------------------------------------------

    def coefficient(self, word: str) -> Fraction:
        if not isinstance(word, str) or word.strip("XY"):
            raise ValueError(f"not a word over X and Y: {word!r}")
        if len(word) > self.truncation:
            raise ValueError("word beyond truncation")
        return self._coeffs.get(word, Fraction(0))

    def terms(self) -> Iterator[tuple[str, Fraction]]:
        """Nonzero terms sorted by (length, word)."""
        for w in sorted(self._coeffs, key=lambda w: (len(w), w)):
            yield w, self._coeffs[w]

    def word_dict(self) -> dict[str, Fraction]:
        return dict(self._coeffs)

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other) -> "NCSeries":
        if not isinstance(other, NCSeries):
            return self._scaled_by(other)
        n = min(self.truncation, other.truncation)
        s1, left = _scaled(self._coeffs)
        s2, right = _scaled(other._coeffs)
        scale = s1 * s2
        return NCSeries(
            n, {w: Fraction(c, scale) for w, c in _word_product(left, right, n).items()}
        )

    __rmul__ = __mul__

    def subst_negswap(self) -> "NCSeries":
        """Substitute X -> -Y, Y -> -X letterwise (word keeps its positions)."""
        return NCSeries(
            self.truncation,
            {w.translate(_NEGSWAP): -c if len(w) % 2 else c for w, c in self._coeffs.items()},
        )

    def __str__(self) -> str:
        return format_terms((c, _compress_word(w)) for w, c in self.terms())


def _word_product(left: dict, right: dict, n: int) -> dict[str, int]:
    """Product of two integer word dicts, words longer than ``n`` dropped."""
    right_by_length = sorted(right.items(), key=lambda wc: len(wc[0]))
    out: dict[str, int] = {}
    for w1, c1 in left.items():
        rest = n - len(w1)
        for w2, c2 in right_by_length:
            if len(w2) > rest:
                break
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


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

def _power_sum(a: NCSeries, weights: list[Fraction]) -> NCSeries:
    """sum_k weights[k] a^k, in integers over one common denominator.

    With a = A / s for an integer word dict A and f_k = F_k / L over the
    least common multiple L of the weights' denominators, the sum is
    sum_k F_k s^(K-k) A^k / (L s^K), K the last index.  Horner's rule
    forms it as q <- q A + F_k s^(K-k), k = K-1, ..., 0.  Every word of A
    has length at least v, the lowest degree of a, so when k more
    multiplications follow, the words of q A longer than n - k v cannot
    reach the truncation n and are not formed.
    """
    n = a.truncation
    top = len(weights) - 1
    v = a.min_degree()
    scale, ints = _scaled(a._coeffs)
    den, numerators = _scaled(dict(enumerate(weights)))
    q = {"": numerators[top]}
    for k in range(top - 1, -1, -1):
        q = _word_product(q, ints, n - k * v)
        f = numerators[k] * scale ** (top - k)
        if f:
            q[""] = q.get("", 0) + f
    den *= scale**top
    return NCSeries(n, {w: Fraction(c, den) for w, c in q.items()})


def nc_exp(a: NCSeries) -> NCSeries:
    """exp of a series with zero constant term.

    a^k vanishes under the truncation once k * v > n, v the lowest degree
    of a, so the sum stops at k = n // v.
    """
    if a.coefficient(""):
        raise ValueError("nonzero constant term")
    n = a.truncation
    if a.is_zero():
        return NCSeries.one(n)
    return _power_sum(
        a, [Fraction(1, factorial(k)) for k in range(n // a.min_degree() + 1)]
    )


def nc_log(a: NCSeries) -> NCSeries:
    """log of a series with constant term 1, bounded as in ``nc_exp``."""
    if a.coefficient("") != 1:
        raise ValueError("constant term must be 1")
    n = a.truncation
    z = a - NCSeries.one(n)
    if z.is_zero():
        return NCSeries.zero(n)
    top = n // z.min_degree()
    return _power_sum(
        z, [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, top + 1)]
    )


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
    from .freelie import LieSeries, lyndon_coords_of_assoc

    n = truncation
    x = NCSeries.generator("X", n)
    y = NCSeries.generator("Y", n)
    r = nc_exp(-y) * nc_exp(-x) * nc_exp(x + y)
    out = []
    for d in range(2, n + 1):
        # r - 1 starts at degree d, so its degree-d part is that of log r
        part = r.degree_part(d)
        out.append(LieSeries(n, lyndon_coords_of_assoc(part)))
        r = nc_exp(-part) * r
    return out
