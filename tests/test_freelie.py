"""Tests for the free Lie algebra machinery."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbch.assoc import NCSeries, _compress_word, bch_log_oracle
from mbch.bch import bch_dynkin, bch_recursive, hausdorff_h1
from mbch.freelie import (
    Derivation,
    LieSeries,
    bracket,
    ideal_membership,
    is_lyndon,
    long_commutator,
    lyndon_coords_of_assoc,
    lyndon_words,
    right_normed,
    standard_bracketing,
    standard_factorization,
    to_assoc,
    to_lyndon_coords,
)
from mbch.freelie import (
    _add_commutator,
    _lyndon_bracket,
    _lyndon_expansion,
    _lyndon_name,
)
from rank_reference import ideal_spanning_elements, span_rank

F = Fraction
# The truncation of the elements built here: above every degree a test
# builds (random trees reach 8, derivations 12), so no term is cut.
N = 12
X = LieSeries.generator("X", N)
Y = LieSeries.generator("Y", N)


# ---------------------------------------------------------------------------
# Independent oracle: count Lyndon words by Moebius/necklace counting.
# ---------------------------------------------------------------------------

def _moebius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _necklace_count(d):
    return sum(_moebius(e) * 2 ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


# ---------------------------------------------------------------------------
# Bracket trees, the language of the tree-level references below: a tree is
# "X", "Y" or a pair of trees, and it enters an element only through _lie.
# ---------------------------------------------------------------------------

def _lie(trees):
    """A combination of bracket trees as a series cut at N, each [A,B] by
    ``bracket``."""

    def build(t):
        if isinstance(t, str):
            return LieSeries.generator(t, N)
        return bracket(build(t[0]), build(t[1]))

    out = LieSeries.zero(N)
    for t, c in trees.items():
        out = out + c * build(t)
    return out


def _tree_degree(t):
    return 1 if isinstance(t, str) else _tree_degree(t[0]) + _tree_degree(t[1])


def _random_tree(rng, max_depth):
    if max_depth == 0 or rng.random() < 0.35:
        return rng.choice("XY")
    return (_random_tree(rng, max_depth - 1), _random_tree(rng, max_depth - 1))


def _random_trees(rng, max_depth=3, nterms=3):
    terms = {}
    for _ in range(nterms):
        t = _random_tree(rng, max_depth)
        terms[t] = F(rng.randint(-4, 4), rng.randint(1, 4))
    return terms


def _random_element(rng, max_depth=3, nterms=3):
    return _lie(_random_trees(rng, max_depth, nterms))


# ---------------------------------------------------------------------------
# Chains, brackets, long commutators
# ---------------------------------------------------------------------------

def test_long_commutator_examples():
    assert long_commutator("XY", 2).term_dict() == {"XY": 1}
    assert long_commutator("XXY", 3).term_dict() == {"XXY": 1}
    assert long_commutator("XXY", 3).truncation == 3
    assert long_commutator("XX", 2).is_zero()
    assert long_commutator("XYY", 3).is_zero()
    with pytest.raises(ValueError):
        long_commutator("XZ", 2)


def test_bracket_drops_syntactically_equal_pairs():
    assert bracket(X, X).is_zero()
    a = bracket(X, Y) + Y
    assert bracket(a, a).is_zero()


def test_element_equality_is_mathematical_as_for_series():
    # Antisymmetry and Jacobi hold under ==, at any truncation.
    assert bracket(X, Y) == -bracket(Y, X)
    assert LieSeries(2, bracket(X, Y).term_dict()) == LieSeries(
        2, (-bracket(Y, X)).term_dict()
    )
    a, b, c = X, Y, bracket(X, Y)
    jacobi = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
    assert jacobi == LieSeries.zero(N)
    assert bracket(X, Y) != bracket(Y, X)
    assert X != "X"


def test_render_and_tree_word():
    # Series print their standard bracketings: a long commutator where
    # that is a chain, nested brackets otherwise.
    assert str(long_commutator("XXY", 3)) == "[X^2Y]"
    nested = bracket(bracket(X, Y), Y)
    assert str(LieSeries(3, nested.term_dict())) == "[[XY],Y]"
    assert str(nested) == "[[XY],Y]"


def test_elements_and_series_are_keyed_by_lyndon_words():
    assert bracket(X, Y).term_dict() == {"XY": 1}
    assert bracket(Y, X).term_dict() == {"XY": -1}
    assert all(is_lyndon(w) for w, _ in bch_dynkin(10).items())
    for bad in (("X", "Y"), "", "XZ", "YX", "XYXY", "YXY"):
        with pytest.raises(ValueError, match="not a Lyndon word over X and Y"):
            LieSeries(3, {bad: 1})


def test_expansion_of_double_bracket():
    nc = to_assoc(long_commutator("XXY", 3))
    assert nc.coefficient("XXY") == 1
    assert nc.coefficient("XYX") == -2
    assert nc.coefficient("YXX") == 1


def test_to_assoc_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        a = _random_element(rng)
        b = _random_element(rng)
        n = 10
        lhs = to_assoc(bracket(a, b).truncate(n))
        ea, eb = to_assoc(a.truncate(n)), to_assoc(b.truncate(n))
        assert lhs == ea * eb - eb * ea


def test_bracket_and_derivation_cut_at_the_smaller_truncation():
    # Factors known through degree 3 fix their bracket only through degree
    # 4, and the degree-5 part of the bracket of the cut series is wrong;
    # the bracket is cut at the smaller truncation, where it agrees with
    # the bracket of the full series.
    h, h1 = bch_recursive(6), hausdorff_h1(6)
    full = bracket(h, h1)
    assert full.degree_part(5).term_dict() == {"XXXYY": F(-1, 24), "XXYXY": F(1, 24)}
    for a, b in ((h.truncate(3), h1.truncate(3)), (h.truncate(3), h1.truncate(5)),
                 (h.truncate(5), h1.truncate(4))):
        cut = bracket(a, b)
        assert cut.truncation == min(a.truncation, b.truncation)
        assert cut.agrees_with(full)
    # A derivation, on a series or with a truncation of its own.
    d = Derivation(None, h1, 6)
    assert d(h.truncate(4)).truncation == 4 and d(h.truncate(4)).agrees_with(d(h))
    assert Derivation(None, h1, 4)(h) == d(h).truncate(4)
    # A long commutator at the word's own length brackets to nothing.
    assert long_commutator("XXY", 5).truncation == 5
    assert bracket(long_commutator("XY", 2), long_commutator("XXY", 3)).is_zero()
    assert bracket(long_commutator("XY", 5), long_commutator("XXY", 6)).term_dict() == {
        "XXYXY": -1
    }
    # The word expansion of a bracket of series at different truncations
    # is AB - BA of their expansions.
    n = 5
    a, b = h, h1.truncate(n)
    ea, eb = to_assoc(a.truncate(n)), to_assoc(b)
    assert to_assoc(bracket(a, b)) == ea * eb - eb * ea
    assert not to_assoc(bracket(a, b)).is_zero()


def test_jacobi_identity():
    rng = random.Random(11)
    for _ in range(20):
        a, b, c = (_random_element(rng, 2, 2) for _ in range(3))
        j = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        assert j.is_zero()


# ---------------------------------------------------------------------------
# Lyndon machinery
# ---------------------------------------------------------------------------

def test_lyndon_words_low_degree():
    assert lyndon_words(1) == ["X", "Y"]
    assert lyndon_words(2) == ["XY"]
    assert lyndon_words(4) == ["XXXY", "XXYY", "XYYY"]


def test_lyndon_counts_match_necklace_oracle():
    for d in range(1, 13):
        words = lyndon_words(d)
        assert len(words) == _necklace_count(d)
        assert words == sorted(words)
        assert all(is_lyndon(w) for w in words)


def test_is_lyndon():
    assert is_lyndon("XY")
    assert not is_lyndon("YX")
    assert not is_lyndon("XYXY")
    assert not is_lyndon("")


def test_standard_factorization():
    assert standard_factorization("XY") == ("X", "Y")
    assert standard_factorization("XXYY") == ("X", "XYY")
    assert standard_factorization("XYXYY") == ("XY", "XYY")
    assert standard_bracketing("XXYY") == ("X", (("X", "Y"), "Y"))
    with pytest.raises(ValueError):
        standard_factorization("YX")


def test_factor_built_lyndon_expansions_match_tree_expansion():
    # Each cached expansion is built as P_u P_v - P_v P_u from the standard
    # factors; expanding the whole standard bracketing is the second route.
    # The cache holds one entry per Lyndon word and no other.
    _lyndon_expansion.cache_clear()
    words = [w for d in range(1, 11) for w in lyndon_words(d)]
    for w in words:
        expansion = _lyndon_expansion(w)
        assert expansion == _word_expansion({standard_bracketing(w): 1})
        assert expansion[w] == 1 and min(expansion) == w
    assert _lyndon_expansion.cache_info().currsize == len(words)


def test_lyndon_bracket_table_matches_word_commutator():
    # [P_u, P_v] from the Lyndon-basis table, expanded into words, against
    # P_u P_v - P_v P_u built from the cached word expansions.
    words = [w for d in range(1, 9) for w in lyndon_words(d)]
    pairs = 0
    for u in words:
        for v in words:
            n = len(u) + len(v)
            if u == v or n > 9:
                continue
            reference: dict = {}
            _add_commutator(reference, _lyndon_expansion(u), _lyndon_expansion(v))
            reference = {w: c for w, c in reference.items() if c}
            coords = _lyndon_bracket(u, v)
            assert to_assoc(LieSeries(n, coords)) == NCSeries(n, reference)
            pairs += 1
    assert pairs == 470


def test_to_lyndon_coords_builds_no_word_expansion():
    # Dynkin's chains and the recursion reach the Lyndon basis through
    # the bracket table; the word expansions of the basis are left to
    # lyndon_coords_of_assoc and to_assoc.
    _lyndon_expansion.cache_clear()
    dyn = bch_dynkin(10)
    rec = bch_recursive(10)
    assert _lyndon_expansion.cache_info().currsize == 0
    assert dyn == rec == LieSeries(10, lyndon_coords_of_assoc(bch_log_oracle(10)))


def test_elimination_keeps_no_top_degree_expansion():
    # The degree-12 pivots are no factor of another pivot, so the cache
    # ends with at most the Lyndon words through 11 (412 of them).
    _lyndon_expansion.cache_clear()
    assert LieSeries(12, lyndon_coords_of_assoc(bch_log_oracle(12))) == bch_recursive(12)
    assert sum(map(_necklace_count, range(1, 12))) == 412
    assert _lyndon_expansion.cache_info().currsize <= 412


def _tree_name(t):
    """Long-commutator notation for a chain tree, nested brackets
    otherwise, by a walk down the tree's right spine."""
    if isinstance(t, str):
        return t
    spine, rest = "", t
    while isinstance(rest, tuple) and isinstance(rest[0], str):
        spine += rest[0]
        rest = rest[1]
    if isinstance(rest, str):
        word = spine + rest
        return word if len(word) == 1 else f"[{_compress_word(word)}]"
    return f"[{_tree_name(t[0])},{_tree_name(t[1])}]"


def test_lyndon_names_match_tree_walk():
    assert _lyndon_name("XXYXY") == "[[X^2Y],[XY]]"
    assert _lyndon_name("XXYY") == "[X,[[XY],Y]]"
    assert _lyndon_name("XXXY") == "[X^3Y]"
    for d in range(1, 15):
        for w in lyndon_words(d):
            assert _lyndon_name(w) == _tree_name(standard_bracketing(w))


def test_to_lyndon_coords_examples():
    assert to_lyndon_coords({"YXY": 1}) == {"XYY": F(-1)}
    assert to_lyndon_coords({"X": 1, "Y": 2}) == {"X": 1, "Y": 2}
    assert to_lyndon_coords({"XX": 1, "YXX": 3}) == {}
    for bad in ({"": 1}, {"XZ": 1}, {("X", "Y"): 1}):
        with pytest.raises(ValueError, match="chain word"):
            to_lyndon_coords(bad)


def _chain_tree(word):
    """The right-nested tree [w1,[w2,[...,wd]]] of a chain word."""
    t = word[-1]
    for ch in reversed(word[:-1]):
        t = (ch, t)
    return t


def test_chains_match_their_word_expansion():
    # A chain combination through the bracket table against its word
    # expansion through the elimination, which shares no algorithm with it.
    rng = random.Random(29)
    for _ in range(40):
        chains = {}
        for _ in range(rng.randint(1, 6)):
            word = "".join(rng.choice("XY") for _ in range(rng.randint(1, 9)))
            chains[word] = F(rng.randint(-5, 5), rng.randint(1, 7))
        words = _word_expansion({_chain_tree(w): c for w, c in chains.items()})
        assert to_lyndon_coords(chains) == lyndon_coords_of_assoc(NCSeries(9, words))


def test_lyndon_roundtrip_random():
    # Lyndon coordinates to words and back.
    rng = random.Random(23)
    for _ in range(30):
        e = _random_element(rng)
        assert LieSeries(N, lyndon_coords_of_assoc(to_assoc(e))) == e


def test_lyndon_coords_of_assoc_rejects_non_lie():
    x = to_assoc(X.truncate(4))
    with pytest.raises(ValueError, match="not a Lie element"):
        lyndon_coords_of_assoc(x * x)


def test_non_lie_residual_raises_under_a_large_common_denominator():
    # X Y / 7 + [X,Y] / 3 is not a Lie element; its degree-2 residual must
    # survive scaling by the common denominator lcm(7, 3, 1001) = 3003.
    xy = NCSeries(3, {"XY": F(1, 7)})
    lie = F(1, 3) * bracket(X, Y) + F(-5, 1001) * long_commutator("XXY", 3)
    with pytest.raises(ValueError, match="nonzero associative residual"):
        lyndon_coords_of_assoc(xy + to_assoc(lie))
    assert lyndon_coords_of_assoc(to_assoc(lie)) == {"XY": F(1, 3), "XXY": F(-5, 1001)}


@pytest.mark.parametrize("bad", [
    lambda: LieSeries(N, {"X": 0.1}),
    lambda: 0.1 * X,
    lambda: X * 0.5,
])
def test_lie_element_rejects_floats(bad):
    with pytest.raises(TypeError, match="rational scalar"):
        bad()


@pytest.mark.parametrize("tree", ["Z", ("X",), ("X", "Y", "X"), ("X", ("Y",))])
def test_lie_element_rejects_non_trees(tree):
    with pytest.raises(ValueError, match="not a Lyndon word"):
        LieSeries(3, {tree: 1})


def _tree_of_degree(draw, d):
    if d == 1:
        return draw(st.sampled_from("XY"))
    k = draw(st.integers(1, d - 1))
    return (_tree_of_degree(draw, k), _tree_of_degree(draw, d - k))


@st.composite
def _trees(draw, max_degree=7):
    return _tree_of_degree(draw, draw(st.integers(1, max_degree)))


# Mixed coprime denominators, given with either sign.
_coeffs = st.builds(
    Fraction,
    st.integers(-30, 30).filter(bool),
    st.sampled_from([1, 2, -3, 4, 5, -7, 9, 11, -13, 49, 1001]),
)


@st.composite
def _trees_with_cancellation(draw):
    """(element, trees of the same element plus terms that cancel exactly)."""
    base = draw(st.dictionaries(_trees(), _coeffs, min_size=1, max_size=5))
    a = draw(_trees(5))
    b = draw(_trees(6 - _tree_degree(a)))
    c = draw(_trees(7 - _tree_degree(a) - _tree_degree(b)))
    k = draw(_coeffs)
    trees = dict(base)
    # antisymmetry, then Jacobi
    for t in ((a, b), (b, a), (a, (b, c)), (b, (c, a)), (c, (a, b))):
        trees[t] = trees.get(t, 0) + k
    return _lie(base), trees


def _word_expansion(trees):
    """Word coefficients of a tree combination, by plain recursion."""

    def words(t):
        if isinstance(t, str):
            return {t: 1}
        out = {}
        for u, x in words(t[0]).items():
            for v, y in words(t[1]).items():
                out[u + v] = out.get(u + v, 0) + x * y
                out[v + u] = out.get(v + u, 0) - x * y
        return out

    total = {}
    for t, c in trees.items():
        for w, k in words(t).items():
            total[w] = total.get(w, 0) + c * k
    return {w: c for w, c in total.items() if c}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_trees_with_cancellation())
def test_integer_core_identities_on_random_trees(pair):
    base, trees = pair
    e = _lie(trees)
    nc = to_assoc(e)
    assert dict(nc.terms()) == _word_expansion(trees)
    assert e.term_dict() == lyndon_coords_of_assoc(nc)
    assert e == base
    assert right_normed(e) == e


def test_recursive_and_oracle_coordinates_agree_at_degree_12():
    assert bch_recursive(12) == LieSeries(12, lyndon_coords_of_assoc(bch_log_oracle(12)))


def test_friedrichs_on_oracle_components():
    h = bch_log_oracle(8)
    for d in range(1, 9):
        part = h.degree_part(d)
        coords = lyndon_coords_of_assoc(part)
        assert to_assoc(LieSeries(8, coords)) == part


# ---------------------------------------------------------------------------
# Right-normed rewriting
# ---------------------------------------------------------------------------

def test_right_normed_preserves_coordinates():
    rng = random.Random(31)
    for _ in range(30):
        e = _random_element(rng)
        r = right_normed(e)
        assert r == e
        assert r.term_dict() == e.term_dict()


def test_right_normed_on_left_nested():
    e = _lie({(("X", "Y"), "Y"): 1})  # [[X,Y],Y], the basis element P_XYY
    r = right_normed(e)
    assert r.term_dict() == {"XYY": 1}


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

def test_derivation_kills_equal_pair():
    out = Derivation(None, X, 6)(bracket(X, Y))
    assert out.is_zero()


def test_derivation_simple_image():
    # D(X) = 0, D(Y) = [X,Y] on [X,Y] gives [X,[X,Y]].
    out = Derivation(None, long_commutator("XY", 6), 6)(bracket(X, Y))
    assert out == long_commutator("XXY", 6)


def test_derivation_leibniz_property():
    rng = random.Random(41)
    d = Derivation(long_commutator("XY", N), X, 12)
    for _ in range(20):
        a = _random_element(rng, 2, 2)
        b = _random_element(rng, 2, 2)
        lhs = d(bracket(a, b))
        rhs = bracket(d(a), b) + bracket(a, d(b))
        assert lhs == rhs


def test_derivation_respects_truncation():
    d = Derivation(None, long_commutator("XY", 2), 2)
    assert d(bracket(X, Y)).is_zero()  # image would be degree 3


@pytest.mark.parametrize("n", [1, 5, 10, 14])
def test_derivation_memo_holds_one_entry_per_lyndon_word(n):
    # The Hausdorff recursion run by hand on coordinates: every memo key is
    # a Lyndon word through the truncation, so the memo stays within their
    # number however many chains the steps would have written.
    d = Derivation(None, hausdorff_h1(n), n)
    h = LieSeries(n, {"Y": F(1)})
    for m in range(1, n + 1):
        h = F(1, m) * d(h)
    assert all(is_lyndon(w) and len(w) <= n for w in d._memo)
    assert len(d._memo) <= sum(len(lyndon_words(k)) for k in range(1, n + 1))


def _tree_derivation(image_x, image_y, n):
    """Reference: the Leibniz rule D[A,B] = [DA,B] + [A,DB] on unnormalized
    bracket trees, memoized per tree, equal pairs dropped, cut at n.  The
    images and the target are tree combinations (None for a zero image)."""
    images = {}
    for g, img in (("X", image_x), ("Y", image_y)):
        images[g] = {t: c for t, c in (img or {}).items() if _tree_degree(t) <= n}

    @functools.cache
    def derive(t):
        if isinstance(t, str):
            return images[t]
        a, b = t
        out = {}
        for ta, ca in derive(a).items():
            if ta != b and _tree_degree(ta) + _tree_degree(b) <= n:
                out[ta, b] = out.get((ta, b), 0) + ca
        for tb, cb in derive(b).items():
            if a != tb and _tree_degree(a) + _tree_degree(tb) <= n:
                out[a, tb] = out.get((a, tb), 0) + cb
        return out

    def apply(trees):
        out = {}
        for t, c in trees.items():
            for rt, rc in derive(t).items():
                out[rt] = out.get(rt, 0) + c * rc
        return _lie(out)

    return apply


def _random_image(rng):
    """Trees of a random image, or None for zero."""
    if rng.random() < 0.2:
        return None
    trees = _random_trees(rng, 3, rng.randint(1, 3))
    if rng.random() < 0.5:
        c, g = F(rng.randint(-3, 3), rng.randint(1, 3)), rng.choice("XY")
        trees[g] = trees.get(g, 0) + c
    return trees


def test_derivation_on_chains_matches_tree_leibniz_rule():
    rng = random.Random(67)
    nonzero = 0
    for n in range(2, 10):
        for _ in range(20):
            ix, iy = _random_image(rng), _random_image(rng)
            target = _random_trees(rng, 3, 3)
            images = [None if i is None else _lie(i) for i in (ix, iy)]
            out = Derivation(*images, n)(_lie(target))
            assert all(is_lyndon(w) for w, _ in out.items())
            coords = out.term_dict()
            assert coords == _tree_derivation(ix, iy, n)(target).term_dict()
            nonzero += bool(coords)
    assert nonzero >= 90


def test_derivation_of_series_is_series_at_smaller_truncation():
    rng = random.Random(71)
    for n, m in ((4, 6), (6, 4), (5, 5)):
        ix, iy = _random_trees(rng, 2, 2), _random_trees(rng, 2, 2)
        ix["Y"], iy["X"] = ix.get("Y", 0) + 1, iy.get("X", 0) + 1
        target = _random_trees(rng, 3, 4)
        out = Derivation(_lie(ix), _lie(iy), n)(LieSeries(m, _lie(target).term_dict()))
        assert isinstance(out, LieSeries) and out.truncation == min(n, m)
        cut = {t: c for t, c in target.items() if _tree_degree(t) <= m}
        ref = _tree_derivation(ix, iy, n)(cut)
        assert out == LieSeries(min(n, m), ref.term_dict())


# ---------------------------------------------------------------------------
# Span helpers and ideal membership
# ---------------------------------------------------------------------------

def test_span_helpers():
    v1 = {"a": F(1), "b": F(2)}
    v2 = {"b": F(1)}
    assert span_rank([v1, v2, {"a": F(2), "b": F(5)}]) == 2
    assert span_rank([v1, v2, {"a": F(3), "b": F(1)}]) == span_rank([v1, v2])
    assert span_rank([v1, {"b": F(1)}]) == span_rank([v1]) + 1


def test_ideal_membership_metabelian():
    e = bracket(long_commutator("XY", 5), long_commutator("XXY", 5))
    assert ideal_membership(e, "metabelian")
    assert not ideal_membership(long_commutator("XXY", 3), "metabelian")
    assert not ideal_membership(e, "deeper")  # degree 5 < 6


def test_ideal_membership_deeper():
    inner = bracket(long_commutator("XY", 7), long_commutator("XXY", 7))
    e = bracket(long_commutator("XY", 7), inner)
    assert ideal_membership(e, "deeper")
    assert ideal_membership(e, "metabelian")
    with pytest.raises(ValueError):
        ideal_membership(e, "solvable")


def test_ideal_spanning_degrees():
    # Degree 4 only offers [u, u] with u = [XY], which vanishes; the first
    # nonzero component of [[L,L],[L,L]] lives in degree 5.
    assert not ideal_spanning_elements("metabelian", 4)
    assert ideal_spanning_elements("metabelian", 5)
    assert not ideal_spanning_elements("metabelian", 3)
    # Same story one level down: degree 6 forces v = w = [XY] inside
    # [u, [v, w]], so the deeper ideal first shows up in degree 7.
    assert not ideal_spanning_elements("deeper", 6)
    assert ideal_spanning_elements("deeper", 7)
    assert not ideal_spanning_elements("deeper", 5)


# ---------------------------------------------------------------------------
# LieSeries
# ---------------------------------------------------------------------------

def test_series_enforces_homogeneity():
    # A LieSeries is keyed by Lyndon words, each graded by its length, so
    # the old {degree: element} shape is refused as a malformed key.
    with pytest.raises(ValueError, match="not a Lyndon word"):
        LieSeries(4, {2: X + bracket(X, Y)})


def test_series_roundtrip_json():
    s = LieSeries(4, (X + Y + F(1, 2) * bracket(X, Y)).term_dict())
    d = s.to_json_dict()
    assert d["basis"] == "lyndon"
    assert [t["word"] for t in d["terms"]] == ["X", "Y", "XY"]
    assert LieSeries.from_json_dict(d) == s


def test_lie_series_has_no_constant_term():
    s = LieSeries(3, (X + bracket(X, Y)).term_dict())
    for refused in (lambda: s + 1, lambda: 1 - s, lambda: LieSeries.one(3)):
        with pytest.raises(TypeError, match="LieSeries has no constant term"):
            refused()


def test_series_str():
    s = LieSeries(3, (X + F(1, 2) * bracket(X, Y)).term_dict())
    assert str(s) == "X + 1/2 [XY]"


def test_series_algebra_and_parts():
    s = LieSeries(3, (X + bracket(X, Y)).term_dict())
    t = LieSeries(3, Y.term_dict())
    u = s + t
    assert u.degree_part(1) == (X + Y).truncate(3)
    assert (2 * s).degree_part(2) == 2 * bracket(X, Y).truncate(3)
    assert s.truncate(1).degree_part(1) == X.truncate(1)
