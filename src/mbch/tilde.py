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
``hausdorff_tilde``.  On brackets, D and the letter actions distribute
by the Leibniz rule; correction terms that are brackets of brackets of
long commutators are dropped, which is exactly the quotient relation.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial

from .series import (
    _as_fraction,
    _refuse_beyond,
    bernoulli,
    format_rational,
    format_terms,
    parse_int,
    parse_rational,
)
from .freelie import LieElement, bracket, long_commutator

__all__ = [
    "TildeElement",
    "tilde_act",
    "tilde_dy",
    "hausdorff_tilde",
    "expand_to_free",
]

Pair = tuple[int, int]


def _ordered(a: Pair, b: Pair) -> bool:
    return a[0] > b[0] or (a[0] == b[0] and a[1] > b[1])


def _bump(d: dict, key, c: Fraction) -> None:
    v = d.get(key, Fraction(0)) + c
    if v:
        d[key] = v
    else:
        d.pop(key, None)


class TildeElement:
    """a X + b Y + linear {m,n} terms + quadratic [{k,l},{m,n}] terms.

    {m,n} has degree m + n + 2 and a pair has degree k + l + m + n + 4;
    everything beyond the truncation is dropped.  Quadratic keys are
    kept in the normal order (k,l) > (m,n); building with keys in the
    opposite order flips the sign, and [A,A] vanishes.
    """

    __slots__ = ("truncation", "a", "b", "_linear", "_quadratic")

    def __init__(
        self,
        truncation: int,
        a=0,
        b=0,
        linear: dict | None = None,
        quadratic: dict | None = None,
    ):
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        lin: dict[Pair, Fraction] = {}
        for (m, n), c in (linear or {}).items():
            if m < 0 or n < 0:
                raise ValueError("negative basis index")
            c = _as_fraction(c)
            if c and m + n + 2 <= truncation:
                _bump(lin, (m, n), c)
        quad: dict[tuple[Pair, Pair], Fraction] = {}
        for (u, v), c in (quadratic or {}).items():
            ku, lu = u
            kv, lv = v
            if min(ku, lu, kv, lv) < 0:
                raise ValueError("negative basis index")
            if u == v:
                continue
            c = _as_fraction(c)
            if not c or ku + lu + kv + lv + 4 > truncation:
                continue
            if _ordered(u, v):
                _bump(quad, (u, v), c)
            else:
                _bump(quad, (v, u), -c)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        object.__setattr__(self, "_linear", lin)
        object.__setattr__(self, "_quadratic", quad)

    def __setattr__(self, name, value):
        raise AttributeError("TildeElement is immutable")

    @classmethod
    def zero(cls, truncation: int) -> "TildeElement":
        return cls(truncation)

    # -- access ---------------------------------------------------------------

    def linear_terms(self):
        """((m, n), coefficient) sorted by degree then indices."""
        return sorted(self._linear.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def quadratic_terms(self):
        """(((k,l), (m,n)), coefficient) sorted by degree then indices."""
        return sorted(
            self._quadratic.items(),
            key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0]),
        )

    def linear_coefficient(self, m: int, n: int) -> Fraction:
        if m + n + 2 > self.truncation:
            raise ValueError("term beyond truncation")
        return self._linear.get((m, n), Fraction(0))

    def quadratic_coefficient(self, u: Pair, v: Pair) -> Fraction:
        if sum(u) + sum(v) + 4 > self.truncation:
            raise ValueError("term beyond truncation")
        if u == v:
            return Fraction(0)
        if _ordered(u, v):
            return self._quadratic.get((u, v), Fraction(0))
        return -self._quadratic.get((v, u), Fraction(0))

    def degree_part(self, d: int) -> "TildeElement":
        lin = {k: c for k, c in self._linear.items() if sum(k) + 2 == d}
        quad = {
            k: c
            for k, c in self._quadratic.items()
            if sum(k[0]) + sum(k[1]) + 4 == d
        }
        a = self.a if d == 1 else 0
        b = self.b if d == 1 else 0
        return TildeElement(self.truncation, a, b, lin, quad)

    def is_zero(self) -> bool:
        return not self.a and not self.b and not self._linear and not self._quadratic

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "TildeElement") -> "TildeElement":
        if not isinstance(other, TildeElement):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        lin = dict(self._linear)
        for k, c in other._linear.items():
            _bump(lin, k, c)
        quad = dict(self._quadratic)
        for k, c in other._quadratic.items():
            _bump(quad, k, c)
        return TildeElement(n, self.a + other.a, self.b + other.b, lin, quad)

    def __neg__(self) -> "TildeElement":
        return Fraction(-1) * self

    def __sub__(self, other: "TildeElement") -> "TildeElement":
        if not isinstance(other, TildeElement):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar) -> "TildeElement":
        s = _as_fraction(scalar)
        return TildeElement(
            self.truncation,
            s * self.a,
            s * self.b,
            {k: s * c for k, c in self._linear.items()},
            {k: s * c for k, c in self._quadratic.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TildeElement):
            return NotImplemented
        return (
            self.truncation == other.truncation
            and self.a == other.a
            and self.b == other.b
            and self._linear == other._linear
            and self._quadratic == other._quadratic
        )

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "truncation": self.truncation,
            "X": format_rational(self.a),
            "Y": format_rational(self.b),
            "linear": [
                {"m": m, "n": n, "c": format_rational(c)}
                for (m, n), c in self.linear_terms()
            ],
            "quadratic": [
                {"k": k, "l": l, "m": m, "n": n, "c": format_rational(c)}
                for ((k, l), (m, n)), c in self.quadratic_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TildeElement":
        n = parse_int(data["truncation"])
        lin = {
            (parse_int(t["m"]), parse_int(t["n"])): parse_rational(t["c"])
            for t in data.get("linear", [])
        }
        quad = {
            (
                (parse_int(t["k"]), parse_int(t["l"])),
                (parse_int(t["m"]), parse_int(t["n"])),
            ): parse_rational(t["c"])
            for t in data.get("quadratic", [])
        }
        _refuse_beyond(n, (sum(k) + 2 for k in lin))
        _refuse_beyond(n, (sum(u) + sum(v) + 4 for u, v in quad))
        return cls(
            n,
            parse_rational(data.get("X", 0)),
            parse_rational(data.get("Y", 0)),
            lin,
            quad,
        )

    def __str__(self) -> str:
        named = [(self.a, "X"), (self.b, "Y")]
        named += [(c, f"{{{m},{n}}}") for (m, n), c in self.linear_terms()]
        named += [
            (c, f"[{{{k},{l}}},{{{m},{n}}}]")
            for ((k, l), (m, n)), c in self.quadratic_terms()
        ]
        return format_terms(named)

    def __repr__(self) -> str:
        return (
            f"TildeElement(truncation={self.truncation}, "
            f"{len(self._linear)} linear, {len(self._quadratic)} quadratic)"
        )


# ---------------------------------------------------------------------------
# Letter actions and the derivation
# ---------------------------------------------------------------------------

def tilde_act(gen: str, e: TildeElement) -> TildeElement:
    """Apply ad X or ad Y.

    Linear terms follow the exact rewriting rules; on quadratic terms
    the letter distributes over the bracket, keeping only the linear
    part of each inner action (the corrections are brackets of brackets
    of long commutators, zero in this quotient).
    """
    g = gen.upper()
    if g not in ("X", "Y"):
        raise ValueError("generator must be X or Y")
    lin: dict[Pair, Fraction] = {}
    quad: dict[tuple[Pair, Pair], Fraction] = {}
    if g == "X":
        if e.b:
            _bump(lin, (0, 0), -e.b)
        for (m, n), c in e._linear.items():
            _bump(lin, (m + 1, n), c)
        for ((k, l), (m, n)), c in e._quadratic.items():
            _bump(quad, ((k + 1, l), (m, n)), c)
            _bump(quad, ((k, l), (m + 1, n)), c)
    else:
        if e.a:
            _bump(lin, (0, 0), e.a)
        for (m, n), c in e._linear.items():
            _bump(lin, (m, n + 1), c)
            for k in range(1, m + 1):
                _bump(quad, ((k - 1, 0), (m - k, n)), comb(m, k) * c)
        for ((k, l), (m, n)), c in e._quadratic.items():
            _bump(quad, ((k, l + 1), (m, n)), c)
            _bump(quad, ((k, l), (m, n + 1)), c)
    return TildeElement(e.truncation, 0, 0, lin, quad)


def _h1_tail(first: int, truncation: int) -> dict[Pair, Fraction]:
    """Coefficients of sum (B_l / l!) {first, l-1}, cut at the truncation."""
    out = {}
    for l in range(1, truncation - first):
        c = bernoulli(l)
        if c:
            out[(first, l - 1)] = c / factorial(l)
    return out


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


def tilde_dy(e: TildeElement, truncation: int) -> TildeElement:
    """The derivation sending X to 0 and Y to X + sum (B_l/l!) {0,l-1}.

    On quadratic terms the Leibniz rule applies and only the linear
    part of each inner derivative survives the quotient.
    """
    out = TildeElement.zero(truncation)
    if e.b:
        out = e.b * TildeElement(truncation, 1, 0, _h1_tail(0, truncation))
    for (m, n), c in e._linear.items():
        out = out + c * _dy_linear(m, n, truncation)
    quad: dict[tuple[Pair, Pair], Fraction] = {}
    for (u, v), c in e._quadratic.items():
        du = _dy_linear(*u, truncation)
        dv = _dy_linear(*v, truncation)
        for p, cc in du._linear.items():
            _bump(quad, (p, v), c * cc)
        for p, cc in dv._linear.items():
            _bump(quad, (u, p), c * cc)
    return out + TildeElement(truncation, quadratic=quad)


# ---------------------------------------------------------------------------
# The recursion for log(e^X e^Y)
# ---------------------------------------------------------------------------

def hausdorff_tilde(truncation: int) -> TildeElement:
    """log(e^X e^Y) out of long commutators and their single brackets.

    X + Y + sum (B_n/n!) {0,n-1} plus the iterated pieces: the first is
    (1/2) sum (B_k/k!) D {0,k-1}, and each next one is the derivative of
    the previous divided by its index.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    n = truncation
    total = TildeElement(n, 1, 1, _h1_tail(0, n))
    h = TildeElement.zero(n)
    for k in range(1, n):
        c = bernoulli(k)
        if c:
            h = h + (c / factorial(k)) * _dy_linear(0, k - 1, n)
    h = Fraction(1, 2) * h
    m = 2
    while not h.is_zero():
        total = total + h
        m += 1
        if m > n:
            break
        h = Fraction(1, m) * tilde_dy(h, n)
    return total


def expand_to_free(e: TildeElement) -> LieElement:
    """The element as honest nested brackets in the free Lie algebra."""
    out = LieElement.zero()
    if e.a:
        out = out + e.a * LieElement.generator("X")
    if e.b:
        out = out + e.b * LieElement.generator("Y")
    for (m, n), c in e._linear.items():
        out = out + c * long_commutator("X" * m + "Y" * (n + 1) + "X")
    for (u, v), c in e._quadratic.items():
        bu = long_commutator("X" * u[0] + "Y" * (u[1] + 1) + "X")
        bv = long_commutator("X" * v[0] + "Y" * (v[1] + 1) + "X")
        out = out + c * bracket(bu, bv)
    return out
