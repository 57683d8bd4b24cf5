"""The quotient of the free Lie algebra by [L', [L', L']], L' = [L, L].

Elements here are spanned by X, Y, the long commutators
{m,n} = [X^m Y^{n+1} X] and the pairs [{k,l},{m,n}] with (k,l) > (m,n)
in the lexicographic sense.  The adjoint operators x = ad X and
y = ad Y act on this basis by

    x {m,n} = {m+1,n}
    y {m,n} = {m,n+1} + sum over k of C(m,k) [{k-1,0},{m-k,n}]

and the derivation D sending X to 0 and Y to
H_1 = X + sum of (B_l / l!) {0,l-1} has the explicit description

    D {m,0} = -sum (B_l / l!) {m+1,l-1}
    D {m,n} = -x^m y^n sum (B_l / l!) {1,l-1}
              + x^m sum_{k=0}^{n-1} y^k ({1,n-k-1}
                  + sum (B_l / l!) [{0,l-1},{0,n-k-1}])   (n >= 1)

Iterating D as in the classical recursion produces log(e^X e^Y) out of
long commutators and single brackets of long commutators; that is
``hausdorff_tilde``, the step loop of ``bch`` run with D.  On a pair
[u,v], D and the letter actions are derivations and give
[du,v] + [u,dv]; only the linear part of du and dv is kept, since the
rest are brackets of brackets of long commutators, zero in this
quotient.  That rule is written once, in ``_leibniz``.

``TildeElement`` stores {m,n} as x^m y^n in a ``BiSeries``, as
``MetabelianElement`` stores its table, so x and y act on it by
multiplication; the pairs are a ``PairSeries``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial, lcm

from .assoc import _generator
from .bch import _hausdorff_steps
from .series import BiSeries, PairSeries, _Codec, _QuotientElement, _Table, bernoulli
from .freelie import LieSeries, _add_lyndon_bracket

__all__ = [
    "TildeElement",
    "tilde_act",
    "tilde_dy",
    "hausdorff_tilde",
    "expand_to_free",
]

Pair = tuple[int, int]


class TildeElement(_QuotientElement):
    """a X + b Y + linear {m,n} terms + quadratic [{k,l},{m,n}] terms.

    {m,n} has degree m + n + 2 and a pair has degree k + l + m + n + 4;
    everything beyond the truncation is dropped.  The linear table is
    the BiSeries sum c_{mn} x^m y^n cut at n - 2, the layout of
    ``MetabelianElement``'s table; the quadratic table is a PairSeries
    keyed ((k,l),(m,n)) cut at n - 4 (each at -1 at the least, where
    every coefficient is beyond the truncation), kept in the normal order
    (k,l) > (m,n): building with keys in the opposite order flips the
    sign, and [A,A] vanishes.  The tables are the public read-only
    attributes ``linear`` and ``quadratic``.
    """

    __slots__ = ("linear", "quadratic")
    _CODEC = _Codec(None, ("X", "Y"), (
        _Table("linear", ("m", "n"), lambda mn: "{{{},{}}}".format(*mn),
               2, "linear", BiSeries),
        _Table("quadratic", (("k", "l"), ("m", "n")),
               lambda uv: "[{{{},{}}},{{{},{}}}]".format(*uv[0], *uv[1]),
               4, "quadratic", PairSeries),
    ), ("kind", "k", "l", "m", "n", "c"))

    def __init__(
        self,
        truncation: int,
        a=0,
        b=0,
        linear: dict | BiSeries | None = None,
        quadratic: dict | PairSeries | None = None,
    ):
        super().__init__(truncation, a, b, linear, quadratic)


# ---------------------------------------------------------------------------
# Letter actions and the derivation
# ---------------------------------------------------------------------------

def _leibniz(pairs: PairSeries, linear_part, den: int = 1) -> PairSeries:
    """A derivation d on brackets: [u,v] goes to [du,v] + [u,dv], at the
    truncation of ``pairs``.

    ``linear_part(u)`` gives the linear terms of d{u} as an integer dict
    {(m,n): c} over ``den``; the rest of du and dv would bracket into
    brackets of brackets of long commutators, zero in this quotient.
    """
    out: dict = {}
    for (u, v), c in pairs._num.items():
        for p, cp in linear_part(u).items():
            out[p, v] = out.get((p, v), 0) + c * cp
        for p, cp in linear_part(v).items():
            out[u, p] = out.get((u, p), 0) + c * cp
    return PairSeries._of(pairs.truncation, out, pairs._den * den, cut=True)


def tilde_act(gen: str, e: TildeElement) -> TildeElement:
    """Apply ad X or ad Y.

    On the linear table ad X is x * table - b and ad Y is
    y * table + a; ad Y also sorts Y into {m,n} past the X's, which
    leaves the brackets sum C(m,k) [{k-1,0},{m-k,n}].  On quadratic
    terms the letter acts by the Leibniz rule.
    """
    if _generator(gen) == "X":
        linear = e.linear.shift(1, 0) - e.b
        quad = _leibniz(e.quadratic, lambda u: {(u[0] + 1, u[1]): 1})
    else:
        linear = e.linear.shift(0, 1) + e.a
        quad = _leibniz(e.quadratic, lambda u: {(u[0], u[1] + 1): 1})
        sorted_in = {
            ((k - 1, 0), (m - k, n)): comb(m, k) * c
            for (m, n), c in e.linear._num.items() for k in range(1, m + 1)
        }
        quad = quad + PairSeries._of(quad.truncation, sorted_in, e.linear._den, cut=True)
    return TildeElement(e.truncation, 0, 0, linear, quad)


def _h1_tail(first: int, truncation: int) -> dict[Pair, Fraction]:
    """Coefficients of sum (B_l / l!) {first, l-1}, cut at the truncation;
    those of the odd l > 1 are zero."""
    return {(first, l - 1): bernoulli(l) / factorial(l) for l in range(1, truncation - first)}


@functools.cache
def _dy_linear(m: int, n: int, truncation: int) -> TildeElement:
    """D {m,n}: the explicit formulas of the module docstring, one letter
    at a time.

    D kills X, so it commutes with ad X and D {m,n} = x D {m-1,n}; then
    D {0,0} = -sum (B_l/l!) {1,l-1} and
    D {0,n} = y D {0,n-1} + {1,n-1} + sum (B_l/l!) [{0,l-1},{0,n-1}].
    """
    if m:
        return tilde_act("X", _dy_linear(m - 1, n, truncation))
    if n == 0:
        return -TildeElement(truncation, linear=_h1_tail(1, truncation))
    piece = TildeElement(
        truncation,
        linear={(1, n - 1): 1},
        quadratic={(u, (0, n - 1)): c for u, c in _h1_tail(0, truncation).items()},
    )
    return tilde_act("Y", _dy_linear(0, n - 1, truncation)) + piece


def tilde_dy(e: TildeElement) -> TildeElement:
    """The derivation sending X to 0 and Y to X + sum (B_l/l!) {0,l-1},
    at the element's truncation.

    On quadratic terms it acts by the Leibniz rule.  D {m,n} has no X or
    Y term, so the linear terms of e add into one linear and one pair
    dict, and only Y contributes to X.  The images D {m,n} that e reads
    are put over one common denominator first.
    """
    truncation = e.truncation
    lin, quad = e.linear, e.quadratic
    keys = {*lin._num, *(u for uv in quad._num for u in uv)}
    images = {u: _dy_linear(*u, truncation) for u in keys}
    den = lcm(*(t._den for i in images.values() for t in (i.linear, i.quadratic)))
    over = {u: (i.linear._over(den), i.quadratic._over(den)) for u, i in images.items()}
    linear, pairs = {}, {}
    for mn, c in lin._num.items():
        for table, terms in zip((linear, pairs), over[mn]):
            for key, cd in terms.items():
                table[key] = table.get(key, 0) + c * cd
    pairs = PairSeries._of(quad.truncation, pairs, lin._den * den)
    linear = BiSeries._of(lin.truncation, linear, lin._den * den)
    if e.b:
        linear = linear + BiSeries(max(lin.truncation, 0), _h1_tail(0, truncation)) * e.b
    quad = _leibniz(quad, lambda u: over[u][0], den) + pairs
    return TildeElement(truncation, e.b, 0, linear, quad)


# ---------------------------------------------------------------------------
# The recursion for log(e^X e^Y)
# ---------------------------------------------------------------------------

def hausdorff_tilde(truncation: int) -> TildeElement:
    """log(e^X e^Y) out of long commutators and their single brackets.

    The step loop of ``bch.bch_recursive_steps`` run with ``tilde_dy``:
    the sum of H_0 = Y, H_1 = D Y = X + sum (B_l/l!) {0,l-1} and each
    next H_m = D H_{m-1} / m.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    steps = _hausdorff_steps(tilde_dy, TildeElement(truncation, 0, 1), truncation)
    return sum(steps, TildeElement.zero(truncation))


def expand_to_free(e: TildeElement) -> LieSeries:
    """The element as honest nested brackets in the free Lie algebra, a
    series at the same truncation.

    {m,n} = [X^m Y^{n+1} X] = -B(m,n) is (-1)^(n+1) P_w for the Lyndon
    word w = X^{m+1} Y^{n+1}, the sign rule that ``metabelian.project``
    reads back; a pair [{u},{v}] is the product of both signs times the
    bracket of the two words, through the bracket table.
    """
    def lyndon(mn: Pair) -> tuple[str, int]:
        m, n = mn
        return "X" * (m + 1) + "Y" * (n + 1), (-1) ** (n + 1)

    lin, quad = e.linear, e.quadratic
    den = lcm(e.a.denominator, e.b.denominator, lin._den, quad._den)
    out = {g: s.numerator * den // s.denominator for g, s in (("X", e.a), ("Y", e.b))}
    for mn, c in lin._over(den).items():
        w, sign = lyndon(mn)
        out[w] = sign * c
    for (u, v), c in quad._over(den).items():
        (wu, su), (wv, sv) = lyndon(u), lyndon(v)
        _add_lyndon_bracket(out, {wu: su * c}, {wv: sv})
    return LieSeries._of(e.truncation, out, den)
