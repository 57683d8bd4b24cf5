"""Truncated noncommutative power series over the words in X, Y.

This is the universal-enveloping side of the package: an independent
word-by-word model used as the oracle that every closed Lie-side formula
is checked against.  A word is a ``str`` over the letters X and Y, as
everywhere else in the package; a ``str`` caches its hash, so dict
lookups on word keys stay cheap.

The kernels run on integers, the numerators every series holds over its
one denominator.  A product multiplies the integer word dicts of its
factors in ``_word_product``; ``nc_exp`` and ``nc_log`` are power sums
sum_k f_k a^k, evaluated by Horner's rule in ``_power_sum`` on the
numerators of a, with the weights f_k the univariate named series.  The
Zassenhaus stripping chains these kernels, so the residual stays one
integer word dict over one denominator from the first factor to the
last.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from .series import BiSeries, TruncatedSeries, _Codec, _Table

__all__ = [
    "NCSeries",
    "nc_exp",
    "nc_log",
    "bch_log_oracle",
    "zassenhaus_oracle",
]

_NEGSWAP = str.maketrans("XY", "YX")


def _all_words(keys) -> bool:
    """Whether every key is a word over X and Y, in one C-level pass: join
    raises on a key that is not a ``str``, strip leaves a bad letter."""
    try:
        return not "".join(keys).strip("XY")
    except TypeError:
        return False


def _generator(letter: str) -> str:
    """``letter`` if it names a generator, X or Y; else raise."""
    if letter not in ("X", "Y"):
        raise ValueError("generator must be X or Y")
    return letter


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
        return cls(truncation, {_generator(letter): 1})

    # -- inspection ----------------------------------------------------------

    def coefficient(self, word: str) -> Fraction:
        if not isinstance(word, str) or word.strip("XY"):
            raise ValueError(f"not a word over X and Y: {word!r}")
        if len(word) > self.truncation:
            raise ValueError("word beyond truncation")
        return Fraction(self._num.get(word, 0), self._den)

    def word_dict(self) -> dict[str, Fraction]:
        # The benchmark's tracer counts a product's terms through this;
        # ``dict(s.items())`` is the form for everything else.
        return dict(self.items())

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other) -> "NCSeries":
        if not isinstance(other, NCSeries):
            return self._times(other)
        n = min(self.truncation, other.truncation)
        out = _word_product(self._num, other._num, n)
        return NCSeries._of(n, out, self._den * other._den)

    __rmul__ = __mul__

    def subst_negswap(self) -> "NCSeries":
        """Substitute X -> -Y, Y -> -X letterwise (word keeps its positions)."""
        swapped = {w.translate(_NEGSWAP): -c if len(w) % 2 else c for w, c in self._num.items()}
        return NCSeries._of(self.truncation, swapped, self._den)


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

def _power_sum(a: NCSeries, n: int, weights: BiSeries) -> NCSeries:
    """sum_k f_k a^k cut at length n, f_k the coefficient of x^k in the
    univariate ``weights`` (k up to its truncation K).

    With f_k = F_k / L and a = A / s over their denominators, the sum is
    sum_k F_k s^(K-k) A^k / (L s^K).  Horner's rule forms it as
    q <- q A + F_k s^(K-k), k = K-1, ..., 0.  Every word of A has length
    at least v, the least length among them, so when k more
    multiplications follow, the words of q A longer than n - k v cannot
    reach the truncation n and are not formed.
    """
    top = weights.truncation
    f = [weights._num.get((k, 0), 0) for k in range(top + 1)]
    ints, s = a._num, a._den
    v = a.min_degree() or 0
    q = {"": f[top]}
    for k in range(top - 1, -1, -1):
        q = _word_product(q, ints, n - k * v)
        if f[k]:
            q[""] = q.get("", 0) + f[k] * s ** (top - k)
    return NCSeries._of(n, q, weights._den * s**top)


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
    return _power_sum(a, n, BiSeries.named("exp", n // a.min_degree()))


def nc_log(a: NCSeries) -> NCSeries:
    """log of a series with constant term 1, bounded as in ``nc_exp``."""
    if a.coefficient("") != 1:
        raise ValueError("constant term must be 1")
    n = a.truncation
    z = a - 1
    if z.is_zero():
        return NCSeries.zero(n)
    return _power_sum(z, n, BiSeries.named("log1p", n // z.min_degree()))


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
    coordinates, extracted from the word-level residual r.  After d - 1
    steps r - 1 starts at degree d, so C_d is the degree-d part of r
    itself, with no logarithm; the next residual is exp(-C_d) r.
    """
    from .freelie import LieSeries, _lyndon_reduce

    n = truncation
    r = _zassenhaus_residual(n)
    out = []
    for d in range(2, n + 1):
        part = r.degree_part(d)
        out.append(LieSeries._of(n, _lyndon_reduce(part._num), part._den))
        if d == n:
            break
        e = _power_sum(-part, n, BiSeries.named("exp", n // d))
        r = NCSeries._of(n, _word_product(e._num, r._num, n), e._den * r._den)
    return out
