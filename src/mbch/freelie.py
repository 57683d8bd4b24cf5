"""Free Lie algebra on two generators X, Y with exact coefficients.

Elements are finite rational combinations of right-nested chains: a
nonempty word w1 w2 ... wd over X, Y stands for the long commutator
[w1,[w2,[...,wd]]], and ``LieElement`` and ``LieSeries`` map chain words
to ``Fraction``s, as ``assoc.NCSeries`` maps words.  Chains span the free
Lie algebra but are no basis ([XY] = -[YX]), so equality compares Lyndon
coordinates.  A bracket tree enters only through ``bracket``, which
rewrites [A, B] into chains once: ad is multiplicative, so ad of the
chain [t] is sum c_p ad(p_1) ... ad(p_k) over the word expansion
sum c_p p of [t], and ad(p_1) ... ad(p_k) prefixes p to a chain
(``_rn_ad``).  ``Derivation`` acts on the Lyndon basis instead:
D(P_w) = [D P_u, P_v] + [P_u, D P_v] over the standard factors u, v of
w, each bracket read from the Lyndon bracket table below, so the BCH
recursion runs on Lyndon coordinates from start to end.

Lyndon coordinates are the output currency, reached by two routes:

* ``to_lyndon_coords`` never leaves the Lie algebra.  It walks the chain
  words along their first-letter trie and combines them bottom-up
  through a cached table of brackets [P_u, P_v] of Lyndon basis
  elements, each an integer combination of P_w computed by the Jacobi
  rewriting of Reutenauer's standard-factorization algorithm.
* ``lyndon_coords_of_assoc`` starts from a word series, as the word-level
  oracles produce.  It eliminates against the associative expansions of
  the Lyndon basis (the expansion of a Lyndon word's standard bracketing
  is that word plus lexicographically later words, with coefficient 1),
  cached per Lyndon word, each P_w built as P_u P_v - P_v P_u from the
  expansions of its standard factors u, v.  Every pivot is 1, so the
  elimination never divides, and it refuses a series that leaves a
  nonzero residual, i.e. one that is not a Lie element.

The elimination shares no algorithm with the bracket table that the
recursion and ``to_lyndon_coords`` use, so a comparison of the recursive
and the word-level BCH series tests each against the other.  All run on
integers: coefficients are scaled once by the least common multiple of
their denominators, ``to_assoc`` walks the same trie with AB - BA in
place of the Lyndon bracket, and ``Fraction`` reappears only in the
results.  The printers render coordinates, each Lyndon word as its
standard bracketing: [X^2Y] where that is a chain, [[XY],Y] otherwise.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Iterator

from .assoc import NCSeries, _compress_word, _scaled
from .series import (
    TruncatedSeries,
    _as_fraction,
    _refuse_beyond,
    _refuse_repeats,
    format_rational,
    format_terms,
    parse_int,
    parse_rational,
)

__all__ = [
    "LieElement",
    "LieSeries",
    "bracket",
    "long_commutator",
    "lyndon_words",
    "is_lyndon",
    "standard_factorization",
    "standard_bracketing",
    "to_assoc",
    "to_lyndon_coords",
    "from_lyndon_coords",
    "lyndon_coords_of_assoc",
    "right_normed",
    "Derivation",
    "ideal_membership",
    "span_rank",
]

_GENERATORS = ("X", "Y")


# ---------------------------------------------------------------------------
# Chain words
# ---------------------------------------------------------------------------

def _refuse_non_chains(words: dict) -> None:
    """One C-level pass over the keys, as in ``NCSeries``: join raises on a
    key that is not a ``str`` (a bracket tree), strip leaves a bad letter
    behind, and the empty word is looked up."""
    try:
        bad = "".join(words).strip("XY") or "" in words
    except TypeError:
        bad = True
    if bad:
        raise ValueError("a chain word is a nonempty string over X and Y")


def _chain_name(word: str) -> str:
    """A letter, or the long commutator [w] in run-length notation."""
    return word if len(word) == 1 else f"[{_compress_word(word)}]"


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class LieElement:
    """Finite rational combination of chains, keyed by chain word (may be
    inhomogeneous)."""

    __slots__ = ("_coeffs",)

    def __init__(self, terms: dict | None = None):
        clean: dict[str, Fraction] = {}
        if terms:
            _refuse_non_chains(terms)
            for w, v in terms.items():
                c = _as_fraction(v)
                if c:
                    clean[w] = c
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LieElement is immutable")

    @classmethod
    def zero(cls) -> "LieElement":
        return cls()

    @classmethod
    def generator(cls, letter: str) -> "LieElement":
        if letter not in _GENERATORS:
            raise ValueError("generator must be X or Y")
        return cls({letter: 1})

    def items(self):
        """The nonzero (chain word, coefficient) pairs, in no particular order."""
        return self._coeffs.items()

    def terms(self) -> Iterator[tuple[str, Fraction]]:
        for w in sorted(self._coeffs, key=lambda w: (len(w), _chain_name(w))):
            yield w, self._coeffs[w]

    def term_dict(self) -> dict:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree_components(self) -> dict[int, "LieElement"]:
        parts: dict[int, dict] = {}
        for w, c in self._coeffs.items():
            parts.setdefault(len(w), {})[w] = c
        return {d: LieElement(m) for d, m in sorted(parts.items())}

    def __add__(self, other) -> "LieElement":
        out = dict(self._coeffs)
        for w, c in other._coeffs.items():
            out[w] = out.get(w, Fraction(0)) + c
        return LieElement(out)

    def __neg__(self) -> "LieElement":
        return LieElement({w: -c for w, c in self._coeffs.items()})

    def __sub__(self, other) -> "LieElement":
        return self + (-other)

    def __rmul__(self, scalar) -> "LieElement":
        c = _as_fraction(scalar)
        return LieElement({w: c * v for w, v in self._coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        """Equality of Lie elements: the same Lyndon coordinates, however
        the chains are written, so [XY] == -[YX]."""
        return isinstance(other, LieElement) and (
            to_lyndon_coords(self) == to_lyndon_coords(other)
        )

    __hash__ = None

    def __str__(self) -> str:
        return format_terms((c, _chain_name(w)) for w, c in self.terms())

    def __repr__(self) -> str:
        return f"LieElement({len(self._coeffs)} terms)"


@functools.cache
def _chain_expansion(word: str) -> dict[str, int]:
    """The word expansion of the chain [word], every [a, B] as aB - Ba."""
    if len(word) == 1:
        return {word: 1}
    out: dict[str, int] = {}
    _add_commutator(out, {word[0]: 1}, _chain_expansion(word[1:]))
    return {w: c for w, c in out.items() if c}


def _rn_ad(expansion: dict, vmap: dict) -> dict:
    """Apply ad(A) to an integer chain-word map, staying in chains.

    A is given by its word expansion sum c_p p: ad is multiplicative, so
    ad(A) = sum c_p ad(p_1) ... ad(p_k), and ad(p_1) ... ad(p_k) sends the
    chain [v] to the chain [p v], or to zero when v is the letter p_k
    ([a, a] = 0).  The expansions come from ``_chain_expansion`` for a
    chain and from ``_lyndon_expansion`` for P_t.
    """
    out: dict[str, int] = {}
    for p, cp in expansion.items():
        last = p[-1]
        for v, c in vmap.items():
            if v != last:
                w = p + v
                out[w] = out.get(w, 0) + cp * c
    return {w: c for w, c in out.items() if c}


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Bilinear bracket, rewritten into chains: [[v], B] is ad([v]) B."""
    sa, ia = _scaled(a._coeffs)
    sb, ib = _scaled(b._coeffs)
    out: dict[str, int] = {}
    for v, c in ia.items():
        for w, ic in _rn_ad(_chain_expansion(v), ib).items():
            out[w] = out.get(w, 0) + c * ic
    scale = sa * sb
    return LieElement({w: Fraction(c, scale) for w, c in out.items()})


def long_commutator(word: str) -> LieElement:
    """Right-nested commutator [w1,[w2,[...,wd]]]; zero when it ends in a
    repeated letter."""
    for ch in word:
        if ch not in _GENERATORS:
            raise ValueError(f"bad letter {ch!r}")
    if not word:
        raise ValueError("empty word")
    if len(word) >= 2 and word[-1] == word[-2]:
        return LieElement.zero()
    return LieElement({word: 1})


def right_normed(a: LieElement) -> LieElement:
    """A copy of the element, which is always written with chains.

    The name stays because the benchmark's span tracer
    (``perfbench/tracer.py``) instruments it by name, and its ``install``
    fails on a name that is missing.
    """
    return LieElement(a._coeffs)


# ---------------------------------------------------------------------------
# Graded series
# ---------------------------------------------------------------------------

class LieSeries(TruncatedSeries):
    """A Lie series cut at a total degree: a map from chain word to
    coefficient, graded by word length."""

    __slots__ = ()
    _degree = staticmethod(len)
    _constant_key = None

    def __init__(self, truncation: int, coeffs: dict | None = None):
        if coeffs:
            _refuse_non_chains(coeffs)
        super().__init__(truncation, coeffs)

    def part(self, d: int) -> LieElement:
        if d > self.truncation:
            raise ValueError("degree beyond truncation")
        return self.degree_part(d).as_element()

    def as_element(self) -> LieElement:
        return LieElement(self._coeffs)

    def __eq__(self, other) -> bool:
        """Mathematical equality: same truncation, equal Lie elements."""
        return (
            isinstance(other, LieSeries)
            and self.truncation == other.truncation
            and self.as_element() == other.as_element()
        )

    def to_json_dict(self) -> dict:
        return _lyndon_json(to_lyndon_coords(self), self.truncation)

    @classmethod
    def from_json_dict(cls, data: dict) -> "LieSeries":
        if data.get("basis") != "lyndon":
            raise ValueError("expected lyndon basis")
        n = parse_int(data["truncation"])
        coords = _refuse_repeats(
            (t["word"], parse_rational(t["c"])) for t in data["terms"]
        )
        for w in coords:
            if not (isinstance(w, str) and is_lyndon(w) and not w.strip("XY")):
                raise ValueError(f"not a Lyndon word over X and Y: {w!r}")
        _refuse_beyond(n, map(len, coords))
        return cls(n, from_lyndon_coords(coords)._coeffs)

    def __str__(self) -> str:
        return _lyndon_text(to_lyndon_coords(self))


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


def _lyndon_text(coords: dict[str, Fraction]) -> str:
    """Lyndon coordinates as a sum of standard bracketings, in order of
    degree, then name."""
    order = sorted(coords, key=lambda w: (len(w), _lyndon_name(w)))
    return format_terms((coords[w], _lyndon_name(w)) for w in order)


def _lyndon_json(coords: dict[str, Fraction], truncation: int) -> dict:
    """Lyndon coordinates as JSON terms, in order of degree, then word."""
    return {
        "truncation": truncation,
        "basis": "lyndon",
        "terms": [
            {"word": w, "c": format_rational(coords[w])}
            for w in sorted(coords, key=lambda w: (len(w), w))
        ],
    }


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
    if len(word) < 2 or not is_lyndon(word):
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
# Associative expansion and Lyndon coordinates
# ---------------------------------------------------------------------------

def _combine_chains(terms: dict, add_bracket) -> dict:
    """Combine an integer combination of chain words bottom-up: each letter
    stays itself, and each chain [a v] is added into the result by
    ``add_bracket(out, {a: 1}, q)`` from the combination q of [v].

    Chains are grouped by their first letter a as [a, sum c [v]], a walk
    over the trie of the words, so each trie node costs one bracket.
    """
    out: dict = {}
    by_first: dict = {}
    for w, c in terms.items():
        if len(w) == 1:
            out[w] = out.get(w, 0) + c
        else:
            by_first.setdefault(w[0], {})[w[1:]] = c
    for a, rest in by_first.items():
        add_bracket(out, {a: 1}, _combine_chains(rest, add_bracket))
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


def to_assoc(a: LieElement | LieSeries, truncation: int) -> NCSeries:
    """Expand into the word algebra, every [A,B] becoming AB - BA."""
    scale, ints = _scaled(
        {w: c for w, c in a._coeffs.items() if len(w) <= truncation}
    )
    words = _combine_chains(ints, _add_commutator)
    return NCSeries(truncation, {w: Fraction(c, scale) for w, c in words.items()})


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
            raise ValueError("not a Lie element: nonzero associative residual")
    return coords


def _ordered_coords(ints: dict[str, int], scale: int) -> dict[str, Fraction]:
    """Integer Lyndon coordinates over one denominator as ``Fraction``s,
    zeros dropped, in order of degree, then word."""
    return {
        w: Fraction(ints[w], scale)
        for w in sorted(ints, key=lambda w: (len(w), w))
        if ints[w]
    }


def to_lyndon_coords(a: LieElement | LieSeries) -> dict[str, Fraction]:
    """Coordinates in the Lyndon basis, keyed by word string in order of
    degree, then word; the chains are combined through the Lyndon bracket
    table, and no word expansion is built."""
    scale, ints = _scaled(a._coeffs)
    return _ordered_coords(_combine_chains(ints, _add_lyndon_bracket), scale)


def lyndon_coords_of_assoc(nc: NCSeries) -> dict[str, Fraction]:
    """Lyndon coordinates of an NCSeries that lies in the free Lie algebra."""
    words = nc.word_dict()
    if words.get(""):
        raise ValueError("not a Lie element: constant term")
    return _lyndon_reduce(*_scaled(words))


@functools.cache
def _lyndon_chains(word: str) -> dict[str, int]:
    """P_w as integer chain words: a letter is itself, and P_w is
    [P_u, P_v] over the standard factors u, v."""
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    return _rn_ad(_lyndon_expansion(u), _lyndon_chains(v))


def from_lyndon_coords(coords: dict[str, Fraction]) -> LieElement:
    """The element with the given Lyndon coordinates, as chains."""
    scale, ints = _scaled(coords)
    out: dict[str, int] = {}
    for w, c in ints.items():
        for u, ic in _lyndon_chains(w).items():
            out[u] = out.get(u, 0) + c * ic
    return LieElement({u: Fraction(c, scale) for u, c in out.items() if c})


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

class Derivation:
    """The derivation with given images of X and Y, truncated at a degree.

    Images may be LieElements, LieSeries, or None for zero; their Lyndon
    coordinates are scaled to integers over one common denominator and
    cut at the truncation.

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
            for w, c in to_lyndon_coords(img).items() if len(w) <= truncation
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

    def __call__(self, target):
        """D of an element (a LieElement), of a series (a LieSeries cut at
        the smaller truncation) or of Lyndon coordinates (a dict keyed by
        Lyndon word, returned in the order of ``to_lyndon_coords``)."""
        coords = target if isinstance(target, dict) else to_lyndon_coords(target)
        scale, ints = _scaled(coords)
        out: dict[str, int] = {}
        for w, c in ints.items():
            if len(w) > self.truncation:
                continue
            for u, ic in self._derive(w).items():
                out[u] = out.get(u, 0) + c * ic
        result = _ordered_coords(out, scale * self._scale)
        if isinstance(target, dict):
            return result
        terms = from_lyndon_coords(result)._coeffs
        if isinstance(target, LieSeries):
            return LieSeries(min(self.truncation, target.truncation), terms)
        return LieElement(terms)


# ---------------------------------------------------------------------------
# Sparse exact linear algebra and ideal membership
# ---------------------------------------------------------------------------

class _RowReducer:
    """Incremental Gauss elimination over sparse Fraction vectors."""

    def __init__(self):
        self.pivots: dict = {}

    def reduce(self, vec: dict) -> dict:
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            key = min(vec)
            row = self.pivots.get(key)
            if row is None:
                return vec
            c = vec[key]
            for k, v in row.items():
                nv = vec.get(k, Fraction(0)) - c * v
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
        return vec

    def add(self, vec: dict) -> bool:
        res = self.reduce(vec)
        if not res:
            return False
        key = min(res)
        lead = res[key]
        self.pivots[key] = {k: v / lead for k, v in res.items()}
        return True


def span_rank(vectors: Iterable[dict]) -> int:
    r = _RowReducer()
    return sum(1 for v in vectors if r.add(dict(v)))


_IDEALS = ("metabelian", "deeper")


def _ideal_spanning_coords(ideal: str, degree: int) -> list[dict[str, int]]:
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


def ideal_spanning_elements(ideal: str, degree: int) -> list[LieElement]:
    """The spanning set of ``_ideal_spanning_coords`` as elements."""
    return [from_lyndon_coords(c) for c in _ideal_spanning_coords(ideal, degree)]


@functools.cache
def _ideal_reducer(ideal: str, degree: int) -> _RowReducer:
    r = _RowReducer()
    for coords in _ideal_spanning_coords(ideal, degree):
        r.add({w: Fraction(c) for w, c in coords.items()})
    return r


def ideal_membership(a: LieElement | LieSeries, ideal: str) -> bool:
    """Exact membership test against the graded spanning set of the ideal."""
    if ideal not in _IDEALS:
        raise ValueError(f"unknown ideal {ideal!r}")
    coords = to_lyndon_coords(a)
    by_degree: dict[int, dict] = {}
    for w, c in coords.items():
        by_degree.setdefault(len(w), {})[w] = c
    for d, vec in by_degree.items():
        if _ideal_reducer(ideal, d).reduce(vec):
            return False
    return True
