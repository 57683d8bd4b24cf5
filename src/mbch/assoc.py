"""Truncated noncommutative power series over the words in X, Y.

This is the universal-enveloping side of the package: an independent
word-by-word model used as the oracle that every closed Lie-side formula
is checked against.  A word is a ``str`` over the letters X and Y, as
everywhere else in the package; a ``str`` caches its hash, so dict
lookups on word keys stay cheap.

The kernels run on integers.  A product scales each factor once by the
least common multiple of its denominators and multiplies integer word
dicts in ``_word_product``; ``nc_exp`` and ``nc_log`` are power sums
sum_k f_k a^k, evaluated by Horner's rule in ``_power_sum`` on an
integer word dict over one common denominator, so each output word
becomes a ``Fraction`` once.  The Zassenhaus stripping chains these
kernels without leaving the integers: the residual stays one integer
word dict over one denominator from the first factor to the last, and
only the extracted factors become ``Fraction``s.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, gcd, lcm

from .series import TruncatedSeries, _Codec, _Table

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


class NCSeries(TruncatedSeries):
    """Noncommutative series truncated at a total word length.

    A key is a word, a ``str`` over X and Y; the empty word ``""`` is the
    constant term.  A key of another type or with another letter is
    refused on construction.
    """

    __slots__ = ()
    _degree = staticmethod(len)
    _constant_key = ""
    _CODEC = _Codec("words", (), (_Table("terms", "word", _compress_word),))

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

    def word_dict(self) -> dict[str, Fraction]:
        return dict(self._coeffs)

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other) -> "NCSeries":
        if not isinstance(other, NCSeries):
            return self._scaled_by(other)
        n = min(self.truncation, other.truncation)
        s1, left = _scaled(self._coeffs)
        s2, right = _scaled(other._coeffs)
        return _from_ints(n, s1 * s2, _word_product(left, right, n))

    __rmul__ = __mul__

    def subst_negswap(self) -> "NCSeries":
        """Substitute X -> -Y, Y -> -X letterwise (word keeps its positions)."""
        return NCSeries(
            self.truncation,
            {w.translate(_NEGSWAP): -c if len(w) % 2 else c for w, c in self._coeffs.items()},
        )


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


# ---------------------------------------------------------------------------
# exp / log
# ---------------------------------------------------------------------------

def _power_sum(scale: int, ints: dict, n: int, weights: list[Fraction]) -> tuple[int, dict]:
    """sum_k weights[k] a^k for a = ints / scale, cut at length n, as
    (denominator, integer word dict).

    With f_k = F_k / L over the least common multiple L of the weights'
    denominators, the sum is sum_k F_k s^(K-k) A^k / (L s^K), A = ints,
    s = scale, K the last index.  Horner's rule forms it as
    q <- q A + F_k s^(K-k), k = K-1, ..., 0.  Every word of A has length
    at least v, the least length among them, so when k more
    multiplications follow, the words of q A longer than n - k v cannot
    reach the truncation n and are not formed.
    """
    top = len(weights) - 1
    v = min(map(len, ints), default=0)
    den, numerators = _scaled(dict(enumerate(weights)))
    q = {"": numerators[top]}
    for k in range(top - 1, -1, -1):
        q = _word_product(q, ints, n - k * v)
        f = numerators[k] * scale ** (top - k)
        if f:
            q[""] = q.get("", 0) + f
    return den * scale**top, q


def _exp_weights(top: int) -> list[Fraction]:
    return [Fraction(1, factorial(k)) for k in range(top + 1)]


def _from_ints(n: int, den: int, ints: dict) -> NCSeries:
    return NCSeries(n, {w: Fraction(c, den) for w, c in ints.items()})


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
    weights = _exp_weights(n // a.min_degree())
    return _from_ints(n, *_power_sum(*_scaled(a._coeffs), n, weights))


def nc_log(a: NCSeries) -> NCSeries:
    """log of a series with constant term 1, bounded as in ``nc_exp``."""
    if a.coefficient("") != 1:
        raise ValueError("constant term must be 1")
    n = a.truncation
    scale, z = _scaled(a._coeffs)
    del z[""]
    if not z:
        return NCSeries.zero(n)
    top = n // min(map(len, z))
    weights = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, top + 1)]
    return _from_ints(n, *_power_sum(scale, z, n, weights))


@functools.cache
def bch_log_oracle(truncation: int) -> NCSeries:
    """log(e^X e^Y) computed purely on words."""
    x = NCSeries.generator("X", truncation)
    y = NCSeries.generator("Y", truncation)
    return nc_log(nc_exp(x) * nc_exp(y))


@functools.cache
def _zassenhaus_residual(truncation: int) -> NCSeries:
    """e^(-Y) e^(-X) e^(X+Y), the product the Zassenhaus factors strip."""
    x = NCSeries.generator("X", truncation)
    y = NCSeries.generator("Y", truncation)
    return nc_exp(-y) * nc_exp(-x) * nc_exp(x + y)


def zassenhaus_oracle(truncation: int) -> list:
    """Iteratively stripped factors C_2 ... C_N of e^(X+Y) = e^X e^Y prod e^(C_n).

    Each factor is returned as a homogeneous LieSeries in Lyndon
    coordinates, extracted from the word-level residual.  The residual r
    is held as one integer word dict over one denominator: after d - 1
    steps r - 1 starts at degree d, so C_d is the degree-d part of r
    itself, with no logarithm; the next residual is exp(-C_d) r, formed
    in integers and reduced by the gcd of the denominator and every
    numerator.
    """
    from .freelie import LieSeries, _lyndon_reduce

    n = truncation
    den, r = _scaled(_zassenhaus_residual(n)._coeffs)
    out = []
    for d in range(2, n + 1):
        part = {w: c for w, c in r.items() if len(w) == d}
        out.append(LieSeries(n, _lyndon_reduce(den, part)))
        if d == n:
            break
        neg = {w: -c for w, c in part.items()}
        e_den, e = _power_sum(den, neg, n, _exp_weights(n // d))
        r = _word_product(e, r, n)
        den *= e_den
        g = gcd(den, *r.values())
        den //= g
        r = {w: c // g for w, c in r.items()}
    return out
