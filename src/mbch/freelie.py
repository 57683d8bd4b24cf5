"""Free Lie algebra on two generators X, Y with exact coefficients.

Elements are finite rational combinations of formal bracket trees; a tree
is the string ``"X"`` or ``"Y"`` or a pair of trees.  Trees are kept
unnormalized until coordinates are requested, and two independent routes
reach the Lyndon basis:

* ``to_lyndon_coords`` never leaves the Lie algebra.  It combines the
  trees bottom-up in Lyndon coordinates, through a cached table of
  brackets [P_u, P_v] of Lyndon basis elements, each an integer
  combination of P_w computed by the Jacobi rewriting of Reutenauer's
  standard-factorization algorithm.  Its input is a tree combination, so
  it is always a Lie element.
* ``lyndon_coords_of_assoc`` starts from a word series, as the word-level
  oracles produce.  It eliminates against the associative expansions of
  the Lyndon basis (the expansion of a Lyndon word's standard bracketing
  is that word plus lexicographically later words, with coefficient 1),
  one cache per degree, each P_w built as P_u P_v - P_v P_u from the
  expansions of its standard factors u, v.  Every pivot is 1, so the
  elimination never divides, and it refuses a series that leaves a
  nonzero residual, i.e. one that is not a Lie element.

Both routes are kept: the tree route is the fast one that every free-Lie
element takes, the elimination is the only one that can read a word
series, and because they share no algorithm a comparison of the
recursive and the word-level BCH series tests each against the other.
Both run on integers.  The coefficients are scaled once by the least
common multiple of their denominators; trees that share a left factor
share one combination of their right factors, so a sum of chains is
walked along a word trie (``to_assoc`` walks it the same way, with the
word commutator AB - BA in place of the Lyndon bracket), and ``Fraction``
reappears only in the results.  ``right_normed`` scales the same way.

Right-nested trees ("long commutators") play a special role throughout:
``long_commutator("XXY")`` is [X,[X,Y]], and ``right_normed`` rewrites any
element into a combination of such chains via [[A,B],C] = [A,[B,C]] -
[B,[A,C]].  That rewriting is the bracket engine on chains:
``Derivation`` applies it inside the Leibniz rule, so a derivation takes
chains to chains and never builds an unnormalized tree.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .assoc import NCSeries, _compress_word, _scaled
from .series import (
    TruncatedSeries,
    _as_fraction,
    _refuse_beyond,
    format_rational,
    format_terms,
    parse_int,
    parse_rational,
)

__all__ = [
    "BracketTree",
    "LieElement",
    "LieSeries",
    "tree_degree",
    "tree_word",
    "chain_tree",
    "render_tree",
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

BracketTree = Union[str, tuple]

_GENERATORS = ("X", "Y")


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------

@functools.cache
def tree_degree(t: BracketTree) -> int:
    """Number of letters of a bracket tree; raises on anything else, so
    ``LieElement`` validates its trees through this one table."""
    if t in _GENERATORS:
        return 1
    if not (isinstance(t, tuple) and len(t) == 2):
        raise ValueError(f"not a bracket tree: {t!r}")
    return tree_degree(t[0]) + tree_degree(t[1])


def chain_tree(word: str) -> BracketTree:
    """The right-nested tree [w1,[w2,[...,wd]]] of a word."""
    if not word:
        raise ValueError("empty word")
    t: BracketTree = word[-1]
    for ch in reversed(word[:-1]):
        t = (ch, t)
    return t


def tree_word(t: BracketTree) -> str | None:
    """The word of a right-nested chain tree, or None if not a chain."""
    parts = []
    while isinstance(t, tuple):
        a, t = t
        if not isinstance(a, str):
            return None
        parts.append(a)
    parts.append(t)
    return "".join(parts)


def render_tree(t: BracketTree) -> str:
    """Long-commutator notation for chains, nested brackets otherwise."""
    if isinstance(t, str):
        return t
    w = tree_word(t)
    if w is not None:
        return f"[{_compress_word(w)}]"
    return f"[{render_tree(t[0])},{render_tree(t[1])}]"


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class LieElement:
    """Finite rational combination of bracket trees (may be inhomogeneous)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean: dict[BracketTree, Fraction] = {}
        if terms:
            for t, v in terms.items():
                tree_degree(t)
                c = _as_fraction(v)
                if c:
                    clean[t] = c
        object.__setattr__(self, "_terms", clean)

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

    def terms(self) -> Iterator[tuple[BracketTree, Fraction]]:
        for t in sorted(self._terms, key=lambda t: (tree_degree(t), render_tree(t))):
            yield t, self._terms[t]

    def term_dict(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree_components(self) -> dict[int, "LieElement"]:
        parts: dict[int, dict] = {}
        for t, c in self._terms.items():
            parts.setdefault(tree_degree(t), {})[t] = c
        return {d: LieElement(m) for d, m in sorted(parts.items())}

    def __add__(self, other) -> "LieElement":
        out = dict(self._terms)
        for t, c in other._terms.items():
            out[t] = out.get(t, Fraction(0)) + c
        return LieElement(out)

    def __neg__(self) -> "LieElement":
        return LieElement({t: -c for t, c in self._terms.items()})

    def __sub__(self, other) -> "LieElement":
        return self + (-other)

    def __rmul__(self, scalar) -> "LieElement":
        c = _as_fraction(scalar)
        return LieElement({t: c * v for t, v in self._terms.items()})

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        """Equality of Lie elements: the same Lyndon coordinates, however
        the trees are written, so [X,Y] == -[Y,X]."""
        return isinstance(other, LieElement) and (
            to_lyndon_coords(self) == to_lyndon_coords(other)
        )

    __hash__ = None

    def __str__(self) -> str:
        return format_terms((c, render_tree(t)) for t, c in self.terms())

    def __repr__(self) -> str:
        return f"LieElement({len(self._terms)} terms)"


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Bilinear bracket; syntactically equal tree pairs drop out ([t,t]=0)."""
    out: dict[BracketTree, Fraction] = {}
    for t1, c1 in a._terms.items():
        for t2, c2 in b._terms.items():
            if t1 == t2:
                continue
            key = (t1, t2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return LieElement(out)


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
    return LieElement({chain_tree(word): 1})


# ---------------------------------------------------------------------------
# Graded series
# ---------------------------------------------------------------------------

class LieSeries(TruncatedSeries):
    """A Lie series cut at a total degree: a map from bracket tree to
    coefficient, graded by ``tree_degree``."""

    __slots__ = ()
    _degree = staticmethod(tree_degree)
    _constant_key = None

    @classmethod
    def from_element(cls, e: LieElement, truncation: int) -> "LieSeries":
        return cls(truncation, e._terms)

    def part(self, d: int) -> LieElement:
        if d > self.truncation:
            raise ValueError("degree beyond truncation")
        return self.degree_part(d).as_element()

    def parts(self) -> Iterator[tuple[int, LieElement]]:
        return iter(self.as_element().degree_components().items())

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
        coords = to_lyndon_coords(self)
        return {
            "truncation": self.truncation,
            "basis": "lyndon",
            "terms": [
                {"word": w, "c": format_rational(coords[w])}
                for w in sorted(coords, key=lambda w: (len(w), w))
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LieSeries":
        if data.get("basis") != "lyndon":
            raise ValueError("expected lyndon basis")
        n = parse_int(data["truncation"])
        coords = {t["word"]: parse_rational(t["c"]) for t in data["terms"]}
        _refuse_beyond(n, map(len, coords))
        return cls.from_element(from_lyndon_coords(coords), n)

    def __str__(self) -> str:
        return str(from_lyndon_coords(to_lyndon_coords(self)))


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


def standard_factorization(word: str) -> tuple[str, str]:
    """Split a Lyndon word (length >= 2) as u v with v the longest proper
    Lyndon suffix (equivalently the lexicographically least one)."""
    if len(word) < 2 or not is_lyndon(word):
        raise ValueError("needs a Lyndon word of length >= 2")
    v = min(word[i:] for i in range(1, len(word)))
    return word[: len(word) - len(v)], v


@functools.cache
def standard_bracketing(word: str) -> BracketTree:
    if word in _GENERATORS:
        return word
    u, v = standard_factorization(word)
    return (standard_bracketing(u), standard_bracketing(v))


# ---------------------------------------------------------------------------
# Associative expansion and Lyndon coordinates
# ---------------------------------------------------------------------------

def _combine_trees(terms: dict, add_bracket) -> dict:
    """Combine an integer combination of trees bottom-up: each letter
    stays itself, and each [A, B] is added into the result by
    ``add_bracket(out, a, b)`` from the combinations a, b of A and B.

    Terms sharing a left factor a are combined together as [a, sum c q],
    so right-nested chains form a trie and each shared suffix is
    combined once.
    """
    out: dict = {}
    by_left: dict = {}
    for t, c in terms.items():
        if isinstance(t, str):
            out[t] = out.get(t, 0) + c
        else:
            rest = by_left.setdefault(t[0], {})
            rest[t[1]] = rest.get(t[1], 0) + c
    for a, rest in by_left.items():
        add_bracket(
            out,
            _combine_trees({a: 1}, add_bracket),
            _combine_trees(rest, add_bracket),
        )
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


def _expand(terms: dict) -> dict:
    """Integer word expansion of an integer combination of trees, every
    [A,B] becoming AB - BA."""
    return _combine_trees(terms, _add_commutator)


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
    if isinstance(a, LieSeries):
        a = a.as_element()
    scale, ints = _scaled(
        {t: c for t, c in a._terms.items() if tree_degree(t) <= truncation}
    )
    return NCSeries(
        truncation, {w: Fraction(c, scale) for w, c in _expand(ints).items()}
    )


@functools.cache
def _sb_expansions(degree: int) -> dict[str, dict[str, int]]:
    """{word: expansion} over the Lyndon words of the degree, in
    lexicographic order.

    The standard bracketing of w = uv is [P_u, P_v] for its standard
    factors u, v, so its expansion is P_u P_v - P_v P_u, built from the
    cached expansions of the factors.
    """
    if degree == 1:
        return {g: {g: 1} for g in _GENERATORS}
    out = {}
    for word in lyndon_words(degree):
        u, v = standard_factorization(word)
        expansion: dict[str, int] = {}
        _add_commutator(expansion, _sb_expansions(len(u))[u], _sb_expansions(len(v))[v])
        out[word] = {w: c for w, c in expansion.items() if c}
    return out


def _lyndon_reduce(scale: int, words: dict) -> dict[str, Fraction]:
    """Triangular extraction of Lyndon coordinates from an integer word
    dict holding ``scale`` times the element, degree by degree.

    Each standard bracketing expands to its Lyndon word with coefficient 1,
    so elimination stays in the integers.  Raises if a nonzero residual
    remains, which happens exactly when the input was not a Lie element.
    """
    by_degree: dict[int, dict] = {}
    for w, c in words.items():
        by_degree.setdefault(len(w), {})[w] = c
    coords: dict[str, Fraction] = {}
    for d in sorted(by_degree):
        acc = by_degree[d]
        for word, expansion in _sb_expansions(d).items():
            c = acc.get(word)
            if not c:
                continue
            coords[word] = Fraction(c, scale)
            for w, ic in expansion.items():
                v = acc.get(w, 0) - c * ic
                if v:
                    acc[w] = v
                else:
                    acc.pop(w, None)
        if acc:
            raise ValueError("not a Lie element: nonzero associative residual")
    return coords


def to_lyndon_coords(a: LieElement | LieSeries) -> dict[str, Fraction]:
    """Coordinates in the Lyndon basis, keyed by word string in order of
    degree, then word; the trees are combined through the Lyndon bracket
    table, and no word expansion is built."""
    if isinstance(a, LieSeries):
        a = a.as_element()
    scale, ints = _scaled(a._terms)
    coords = _combine_trees(ints, _add_lyndon_bracket)
    return {
        w: Fraction(coords[w], scale)
        for w in sorted(coords, key=lambda w: (len(w), w))
    }


def lyndon_coords_of_assoc(nc: NCSeries) -> dict[str, Fraction]:
    """Lyndon coordinates of an NCSeries that lies in the free Lie algebra."""
    words = nc.word_dict()
    if words.get(""):
        raise ValueError("not a Lie element: constant term")
    return _lyndon_reduce(*_scaled(words))


def from_lyndon_coords(coords: dict[str, Fraction]) -> LieElement:
    return LieElement(
        {standard_bracketing(w): c for w, c in coords.items() if c}
    )


# ---------------------------------------------------------------------------
# Right-normed rewriting
# ---------------------------------------------------------------------------

def _rn_ad(t: BracketTree, vmap: dict) -> dict:
    """Apply ad(t) to a word-keyed map, staying in right-normed form.

    For a pair t = (p, q) this is ad(p)ad(q) - ad(q)ad(p), the Jacobi
    rewriting [[A,B],C] = [A,[B,C]] - [B,[A,C]] in operator clothing.
    """
    if isinstance(t, str):
        out = {}
        for w, c in vmap.items():
            if len(w) == 1 and w == t:
                continue
            out[t + w] = out.get(t + w, 0) + c
        return {w: c for w, c in out.items() if c}
    p, q = t
    first = _rn_ad(p, _rn_ad(q, vmap))
    second = _rn_ad(q, _rn_ad(p, vmap))
    for w, c in second.items():
        v = first.get(w, 0) - c
        if v:
            first[w] = v
        else:
            first.pop(w, None)
    return first


@functools.cache
def _rn_tree(t: BracketTree) -> dict:
    if isinstance(t, str):
        return {t: 1}
    return _rn_ad(t[0], _rn_tree(t[1]))


def _chain_words(a: LieElement | LieSeries) -> dict[str, Fraction]:
    """The chain words of an element or series with their coefficients:
    {w: c} stands for the sum of c [w] over right-nested chains."""
    if isinstance(a, LieSeries):
        a = a.as_element()
    scale, ints = _scaled(a._terms)
    words: dict[str, int] = {}
    for t, c in ints.items():
        for w, ic in _rn_tree(t).items():
            words[w] = words.get(w, 0) + c * ic
    return {w: Fraction(c, scale) for w, c in words.items() if c}


def right_normed(a: LieElement) -> LieElement:
    """The same element written with right-nested chain trees only."""
    return LieElement({chain_tree(w): c for w, c in _chain_words(a).items()})


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

class Derivation:
    """The derivation with given images of X and Y, truncated at a degree.

    Images may be LieElements, LieSeries, or None for zero; they are
    rewritten into chain words, scaled to integers over one common
    denominator, and cut at the truncation.

    D acts on right-normed chains: a chain word w = a v (a its first
    letter) goes to [a, D v] + [D a, v], both brackets rewritten back into
    chains by ``_rn_ad``.  Results are memoized per chain word, so a
    sequence of applications (as in the Hausdorff recursion) shares work,
    and the result is always a combination of chain trees.
    """

    def __init__(self, image_x, image_y, truncation: int):
        self.truncation = truncation
        self._scale, ints = _scaled({
            (g, w): c
            for g, img in (("X", image_x), ("Y", image_y)) if img is not None
            for w, c in _chain_words(img).items() if len(w) <= truncation
        })
        self._images: dict[str, dict[str, int]] = {"X": {}, "Y": {}}
        for (g, w), c in ints.items():
            self._images[g][w] = c
        self._derive = functools.cache(self._derive_word)

    def _derive_word(self, w: str) -> dict[str, int]:
        """D of the chain [w], as chain words times ``self._scale``."""
        n = self.truncation
        a, v = w[0], w[1:]
        if not v:
            return self._images[a]
        out = _rn_ad(a, {u: c for u, c in self._derive(v).items() if len(u) < n})
        for image, c in self._images[a].items():
            if image == v or len(image) + len(v) > n:
                continue  # [v, v] = 0, skipped where the tree rule skipped it
            for u, ic in _rn_ad(chain_tree(image), {v: 1}).items():
                out[u] = out.get(u, 0) + c * ic
        return {u: c for u, c in out.items() if c}

    def __call__(self, target):
        """D of an element (a LieElement) or of a series (a LieSeries cut
        at the smaller truncation), written with chain trees."""
        scale, ints = _scaled(_chain_words(target))
        out: dict[str, int] = {}
        for w, c in ints.items():
            if len(w) > self.truncation:
                continue
            for u, ic in self._derive(w).items():
                out[u] = out.get(u, 0) + c * ic
        scale *= self._scale
        terms = {chain_tree(u): Fraction(c, scale) for u, c in out.items()}
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


def ideal_spanning_elements(ideal: str, degree: int) -> list[LieElement]:
    """Homogeneous spanning set of the ideal in the given degree.

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
                    out.append(
                        bracket(
                            LieElement({standard_bracketing(u): 1}),
                            LieElement({standard_bracketing(v): 1}),
                        )
                    )
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
                            inner = bracket(
                                LieElement({standard_bracketing(v): 1}),
                                LieElement({standard_bracketing(w): 1}),
                            )
                            out.append(
                                bracket(LieElement({standard_bracketing(u): 1}), inner)
                            )
    return out


@functools.cache
def _ideal_reducer(ideal: str, degree: int) -> _RowReducer:
    r = _RowReducer()
    for e in ideal_spanning_elements(ideal, degree):
        r.add(to_lyndon_coords(e))
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
