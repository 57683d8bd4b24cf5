"""Free Lie algebra on two generators X, Y with exact coefficients.

An element is a ``LieSeries``: rational coordinates in the Lyndon basis,
cut at a total degree.  A Lyndon word w over X < Y stands for its
standard bracketing P_w, a letter or [P_u, P_v] over the standard
factors u, v of w.  ``LieSeries`` maps Lyndon words to ``Fraction``s, as
``assoc.NCSeries`` maps words, and since the P_w are a basis, equal
series are equal maps.  ``bracket`` reads a cached table of brackets
[P_u, P_v], each an integer combination of P_w computed by the Jacobi
rewriting of Reutenauer's standard-factorization algorithm, and
``Derivation`` acts on the basis by D(P_w) = [D P_u, P_v] + [P_u, D P_v],
so the BCH recursion runs on Lyndon coordinates from start to end.  Both
cut their result at the smaller truncation, as ``NCSeries`` cuts a
product: factors known through degree n determine a bracket only
through n.

Right-nested chains [w1,[w2,[...,wd]]], the natural output of Dynkin's
formula and of long commutators, enter in one place:
``to_lyndon_coords`` takes a map from chain words to coefficients and
combines the chains bottom-up through the bracket table.  ``to_assoc``
makes the same walk over Lyndon words, split at their standard
factorization, with AB - BA in place of the table.

``lyndon_coords_of_assoc`` is the way back from a word series, as the
word-level oracles produce.  It eliminates against the associative
expansions of the Lyndon basis (the expansion of P_w is w plus
lexicographically later words, with coefficient 1), cached per Lyndon
word, each P_w built as P_u P_v - P_v P_u from the expansions of its
standard factors u, v.  Every pivot is 1, so the elimination never
divides, and it refuses a series that leaves a nonzero residual, i.e.
one that is not a Lie element.  The elimination shares no algorithm
with the bracket table, so a comparison of the recursive and the
word-level BCH series tests each against the other.  Membership in
L'' = [L',L'] and in [L',L''] is a mask on the same coordinates.

All of this runs on integers: coefficients are scaled once by the least
common multiple of their denominators, and ``Fraction`` reappears only
in the results.  Text renders each Lyndon word as its standard
bracketing: [X^2Y] where that is a chain, [[XY],Y] otherwise.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .assoc import NCSeries, _all_words, _compress_word, _generator, _scaled
from .series import TruncatedSeries, _Codec, _Table, _as_fraction

__all__ = [
    "LieSeries",
    "bracket",
    "long_commutator",
    "lyndon_words",
    "is_lyndon",
    "standard_factorization",
    "standard_bracketing",
    "to_assoc",
    "to_lyndon_coords",
    "lyndon_coords_of_assoc",
    "right_normed",
    "Derivation",
    "ideal_membership",
]

_GENERATORS = ("X", "Y")


# ---------------------------------------------------------------------------
# Keys and names
# ---------------------------------------------------------------------------

@functools.cache
def _is_lyndon_key(w) -> bool:
    return isinstance(w, str) and not w.strip("XY") and is_lyndon(w)


def _chain_name(word: str) -> str:
    """A letter, or the long commutator [w] in run-length notation."""
    return word if len(word) == 1 else f"[{_compress_word(word)}]"


@functools.cache
def _lyndon_name(word: str) -> str:
    """The standard bracketing of P_w as printed: P_w is the chain [w]
    when its standard factor u is a letter and P_v is a chain (a name
    without a comma), and [name(u),name(v)] otherwise."""
    if len(word) == 1:
        return word
    u, v = standard_factorization(word)
    if len(u) == 1 and "," not in _lyndon_name(v):
        return _chain_name(word)
    return f"[{_lyndon_name(u)},{_lyndon_name(v)}]"


# ---------------------------------------------------------------------------
# Lie series
# ---------------------------------------------------------------------------

class LieSeries(TruncatedSeries):
    """A Lie series cut at a total degree: a map from Lyndon word to
    coefficient, graded by word length.  It is written as its Lyndon
    coordinates: as JSON and CSV in order of degree and then of the word,
    as text under its standard bracketing, in order of degree and then of
    that printed bracketing."""

    __slots__ = ()
    _degree = staticmethod(len)
    _constant_key = None
    _CODEC = _Codec(
        "lyndon", (), (_Table("terms", "word", _lyndon_name, text_key=_lyndon_name),),
        ("degree", "word", "c"),
    )

    def __init__(self, truncation: int, coeffs: dict | None = None):
        for w in coeffs or ():
            if not _is_lyndon_key(w):
                raise ValueError(f"not a Lyndon word over X and Y: {w!r}")
        super().__init__(truncation, coeffs)

    @classmethod
    def generator(cls, letter: str, truncation: int) -> "LieSeries":
        return cls(truncation, {_generator(letter): 1})


def bracket(a: LieSeries, b: LieSeries) -> LieSeries:
    """Bilinear bracket, read from the Lyndon bracket table and cut at the
    smaller truncation, as ``NCSeries`` cuts a product."""
    sa, ia = _scaled(a._coeffs)
    sb, ib = _scaled(b._coeffs)
    out: dict[str, int] = {}
    _add_lyndon_bracket(out, ia, ib)
    scale = sa * sb
    n = min(a.truncation, b.truncation)
    return LieSeries(n, {w: Fraction(c, scale) for w, c in out.items()})


def long_commutator(word: str, truncation: int) -> LieSeries:
    """Right-nested commutator [w1,[w2,[...,wd]]] as a series cut at the
    truncation; zero when it ends in a repeated letter."""
    return LieSeries(truncation, to_lyndon_coords({word: 1}))


def right_normed(a: LieSeries) -> LieSeries:
    """A copy of the series, which is always written in the Lyndon basis.

    The name stays because the benchmark's span tracer
    (``perfbench/tracer.py``) instruments it by name, and its ``install``
    fails on a name that is missing.
    """
    return LieSeries(a.truncation, a._coeffs)


# ---------------------------------------------------------------------------
# Lyndon words and their standard bracketings
# ---------------------------------------------------------------------------

def lyndon_words(degree: int) -> list[str]:
    """All Lyndon words of the given length over X < Y, in lexicographic
    order (Duval's algorithm)."""
    if degree < 1:
        raise ValueError("degree must be positive")
    found = []
    w = [-1]
    while w:
        w[-1] += 1
        if len(w) == degree:
            found.append("".join(_GENERATORS[i] for i in w))
        m = len(w)
        while len(w) < degree:
            w.append(w[len(w) - m])
        while w and w[-1] == 1:
            w.pop()
    return found


def is_lyndon(word: str) -> bool:
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


@functools.cache
def standard_factorization(word: str) -> tuple[str, str]:
    """Split a Lyndon word (length >= 2) as u v with v the longest proper
    Lyndon suffix (equivalently the lexicographically least one)."""
    if len(word) < 2 or not _is_lyndon_key(word):
        raise ValueError("needs a Lyndon word of length >= 2")
    v = min(word[i:] for i in range(1, len(word)))
    return word[: len(word) - len(v)], v


@functools.cache
def standard_bracketing(word: str) -> str | tuple:
    """The bracket tree of P_w: a letter, or the pair of the standard
    bracketings of the standard factors."""
    if word in _GENERATORS:
        return word
    u, v = standard_factorization(word)
    return (standard_bracketing(u), standard_bracketing(v))


# ---------------------------------------------------------------------------
# Bracket table, chains and associative expansion
# ---------------------------------------------------------------------------

def _combine(terms: dict, split, left, add_bracket) -> dict:
    """Combine an integer combination of bracketed words bottom-up.

    A letter stays itself.  ``split`` cuts a longer word w as [u, v], and
    the words that share u are summed as [left(u), sum c v] by one
    ``add_bracket(out, left(u), ...)``, with the v combined first by the
    same walk, so each shared left factor costs one bracket.  Chains
    split at their first letter, Lyndon words at their standard
    factorization.
    """
    out: dict = {}
    by_left: dict = {}
    for w, c in terms.items():
        if len(w) == 1:
            out[w] = out.get(w, 0) + c
        else:
            u, v = split(w)
            by_left.setdefault(u, {})[v] = c
    for u, rest in by_left.items():
        add_bracket(out, left(u), _combine(rest, split, left, add_bracket))
    return {w: c for w, c in out.items() if c}


def _add_commutator(out: dict, ea: dict, eb: dict) -> None:
    """Add the word expansion of [A, B], ea eb - eb ea, into ``out``."""
    for w1, c1 in ea.items():
        for w2, c2 in eb.items():
            c = c1 * c2
            w = w1 + w2
            out[w] = out.get(w, 0) + c
            w = w2 + w1
            out[w] = out.get(w, 0) - c


def _add_lyndon_bracket(out: dict, la: dict, lb: dict) -> None:
    """Add [A, B] into ``out``, with A, B and the result in Lyndon
    coordinates."""
    for u, c1 in la.items():
        for v, c2 in lb.items():
            c = c1 * c2
            for w, ic in _lyndon_bracket(u, v).items():
                out[w] = out.get(w, 0) + c * ic


@functools.cache
def _lyndon_bracket(u: str, v: str) -> dict[str, int]:
    """[P_u, P_v] for Lyndon words u, v, in Lyndon coordinates.

    For u < v the word uv is Lyndon; when u is a letter or the standard
    factors u = u1 u2 have u2 >= v, its standard factorization is (u, v)
    and the bracket is P_uv.  Otherwise the Jacobi identity
    [[P_u1, P_u2], P_v] = [P_u1, [P_u2, P_v]] - [P_u2, [P_u1, P_v]]
    rewrites it into brackets that the same rules resolve, a recursion
    that terminates (Reutenauer, Free Lie Algebras, 1993, section 5.1).
    All coefficients are integers.
    """
    if u == v:
        return {}
    if u > v:
        return {w: -c for w, c in _lyndon_bracket(v, u).items()}
    if len(u) > 1:
        u1, u2 = standard_factorization(u)
        if u2 < v:
            out: dict[str, int] = {}
            _add_lyndon_bracket(out, {u1: 1}, _lyndon_bracket(u2, v))
            _add_lyndon_bracket(out, {u2: -1}, _lyndon_bracket(u1, v))
            return {w: c for w, c in out.items() if c}
    return {u + v: 1}


def to_lyndon_coords(chains: dict) -> dict[str, Fraction]:
    """Lyndon coordinates of a combination of right-nested chains.

    ``chains`` maps a chain word w1 w2 ... wd, nonempty over X and Y, to
    the coefficient of [w1,[w2,[...,wd]]]; the result is keyed by Lyndon
    word.  The chains are grouped by their first letter, a walk over the
    trie of the words, and combined through the Lyndon bracket table; no
    word expansion is built.
    """
    if not _all_words(chains) or "" in chains:
        raise ValueError("a chain word is a nonempty string over X and Y")
    scale, ints = _scaled({w: _as_fraction(c) for w, c in chains.items()})
    out = _combine(ints, lambda w: (w[0], w[1:]), lambda a: {a: 1}, _add_lyndon_bracket)
    return {w: Fraction(c, scale) for w, c in out.items()}


def to_assoc(a: LieSeries) -> NCSeries:
    """Expand into the word algebra, every [A,B] becoming AB - BA, at the
    series' truncation.

    The Lyndon words are walked as in ``to_lyndon_coords``, split at their
    standard factorization; the expansion of each left factor is cached.
    """
    scale, ints = _scaled(a._coeffs)
    words = _combine(ints, standard_factorization, _lyndon_expansion, _add_commutator)
    return NCSeries(a.truncation, {w: Fraction(c, scale) for w, c in words.items()})


@functools.cache
def _lyndon_expansion(word: str) -> dict[str, int]:
    """The word expansion of P_w for a Lyndon word w.

    The standard bracketing of w = uv is [P_u, P_v] for its standard
    factors u, v, so its expansion is P_u P_v - P_v P_u, built from the
    cached expansions of the factors.
    """
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    out: dict[str, int] = {}
    _add_commutator(out, _lyndon_expansion(u), _lyndon_expansion(v))
    return {w: c for w, c in out.items() if c}


def _lyndon_reduce(scale: int, words: dict) -> dict[str, Fraction]:
    """Triangular extraction of Lyndon coordinates from an integer word
    dict holding ``scale`` times the element, degree by degree.

    Each standard bracketing expands to its Lyndon word with coefficient 1,
    so elimination stays in the integers.  Only pivots are expanded; the
    words of the top degree are no factor of another pivot here, so their
    expansions are built from the cached factors and not kept.  Raises if
    a nonzero residual remains, which happens exactly when the input was
    not a Lie element.
    """
    by_degree: dict[int, dict] = {}
    for w, c in words.items():
        by_degree.setdefault(len(w), {})[w] = c
    coords: dict[str, Fraction] = {}
    top = max(by_degree, default=0)
    for d in sorted(by_degree):
        acc = by_degree[d]
        expand = _lyndon_expansion.__wrapped__ if d == top else _lyndon_expansion
        for word in lyndon_words(d):
            c = acc.get(word)
            if not c:
                continue
            coords[word] = Fraction(c, scale)
            for w, ic in expand(word).items():
                v = acc.get(w, 0) - c * ic
                if v:
                    acc[w] = v
                else:
                    acc.pop(w, None)
        if acc:
            raise ValueError(f"not a Lie element: nonzero associative residual in degree {d}")
    return coords


def lyndon_coords_of_assoc(nc: NCSeries) -> dict[str, Fraction]:
    """Lyndon coordinates of an NCSeries that lies in the free Lie algebra."""
    words = dict(nc.items())
    if words.get(""):
        raise ValueError("not a Lie element: constant term")
    return _lyndon_reduce(*_scaled(words))


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

class Derivation:
    """The derivation with given images of X and Y, truncated at a degree.

    Images are LieSeries, or None for zero; their coefficients are scaled
    to integers over one common denominator and cut at the truncation.

    D acts on the Lyndon basis: for a Lyndon word w with standard factors
    u, v, D(P_w) = [D P_u, P_v] + [P_u, D P_v], each bracket read from the
    Lyndon bracket table and terms above the truncation dropped.  Results
    are memoized per Lyndon word, so a sequence of applications (as in the
    Hausdorff recursion) shares work, and the memo holds at most one entry
    per Lyndon word through the truncation.
    """

    def __init__(self, image_x, image_y, truncation: int):
        self.truncation = truncation
        self._scale, ints = _scaled({
            (g, w): c
            for g, img in (("X", image_x), ("Y", image_y)) if img is not None
            for w, c in img.items() if len(w) <= truncation
        })
        # A plain dict: functools.cache on a bound method is a reference
        # cycle, which keeps the memo alive until the cyclic collector runs.
        self._memo: dict[str, dict[str, int]] = {"X": {}, "Y": {}}
        for (g, w), c in ints.items():
            self._memo[g][w] = c

    def _derive(self, w: str) -> dict[str, int]:
        """D(P_w) in Lyndon coordinates, times ``self._scale``."""
        out = self._memo.get(w)
        if out is None:
            u, v = standard_factorization(w)
            n = self.truncation
            du = {t: c for t, c in self._derive(u).items() if len(t) + len(v) <= n}
            dv = {t: c for t, c in self._derive(v).items() if len(u) + len(t) <= n}
            out = {}
            _add_lyndon_bracket(out, du, {v: 1})
            _add_lyndon_bracket(out, {u: 1}, dv)
            out = self._memo[w] = {t: c for t, c in out.items() if c}
        return out

    def __call__(self, target: LieSeries) -> LieSeries:
        """D of a series, as a series cut at the smaller truncation."""
        scale, ints = _scaled(target._coeffs)
        out: dict[str, int] = {}
        for w, c in ints.items():
            if len(w) > self.truncation:
                continue
            for u, ic in self._derive(w).items():
                out[u] = out.get(u, 0) + c * ic
        scale *= self._scale
        n = min(self.truncation, target.truncation)
        return LieSeries(n, {u: Fraction(c, scale) for u, c in out.items()})


# ---------------------------------------------------------------------------
# Ideal membership
# ---------------------------------------------------------------------------

_IDEALS = {"metabelian": 1, "deeper": 2}


@functools.cache
def _ideal_level(word: str) -> int:
    """The factor rule on the standard factorization w = uv: at least 1
    when P_w lies in L'' = [L',L'], 2 when it lies in [L',L''], else 0.

    The level is the larger of the factors' levels, plus one when both
    factors have length at least 2, at most 2.  So P_w = [P_u, P_v] is at
    a level by construction: a bracket of two elements of L' is in L'',
    one of an element of L' and one of L'' is in [L',L''], and a factor
    in an ideal keeps the bracket there.  As the P_w are a basis of L,
    the words at a level or above are a basis of its ideal once they are
    as many as its dimension.  L' is free on a space W with dim W_d = d - 1 for
    d >= 2 (Shirshov-Witt), and L''/[L',L''] is the exterior square of W
    (Reutenauer, Free Lie Algebras, 1993, section 5.1).  So in degree d
    the words of level 0 must be d - 1: they are the X^k Y^l, a letter
    bracketed with an X^k' Y^l'.  Those of level 1 must be dim (W ^ W)_d.
    The tests check both counts at every degree through 20, the highest
    any command serves.
    """
    if len(word) == 1:
        return 0
    u, v = standard_factorization(word)
    level = max(_ideal_level(u), _ideal_level(v))
    if len(u) > 1 and len(v) > 1:
        level += 1
    return min(level, 2)


def ideal_membership(a: LieSeries, ideal: str) -> bool:
    """Whether the series lies in the ideal: every Lyndon word with a
    nonzero coordinate has at least the ideal's level."""
    if ideal not in _IDEALS:
        raise ValueError(f"unknown ideal {ideal!r}")
    level = _IDEALS[ideal]
    return all(_ideal_level(w) >= level for w, _ in a.items())
