"""The free Lie algebra on X, Y modulo brackets of brackets.

In the quotient by [[L,L],[L,L]] every element is a combination of X, Y
and the chains B(k,l) = [X^k Y^l X Y], and a commutative power series in
(ad X, ad Y) acting on [XY] is the same data as a table of B(k,l)
coefficients.  ``MetabelianElement`` stores its table as exactly that
series, a ``BiSeries``.  The correspondence makes log(e^X e^Y)
computable in closed form:

    log(e^X e^Y) = X + Y + h(ad X, ad Y) [XY],
    h(x,y) = (1/y) (1 - ((e^x - 1)/x) ((x+y)/(e^{x+y} - 1)))

This module provides the projection onto the quotient (a mask on
Lyndon coordinates), the closed formula, the two-variable coefficient
series c(u,v), the quotient Zassenhaus solution, and a complete solver
for the commutator equation

    log(e^X e^Y) - X - Y = [X, F(X,Y)] + [Y, F(-Y,-X)].
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .series import BiSeries, _Codec, _QuotientElement, _Table, _as_fraction
from .freelie import LieSeries, _chain_name, _ideal_level

__all__ = [
    "MetabelianElement",
    "project",
    "h_series",
    "hausdorff_closed",
    "goldberg_c",
    "zassenhaus_closed",
    "kv_solve",
    "kv_verify",
]


class MetabelianElement(_QuotientElement):
    """An element a X + b Y + sum of c_{kl} B(k,l), cut at a total degree.

    B(k,l) stands for the chain [X^k Y^l X Y] of degree k + l + 2.  The
    table of coefficients c_{kl} is stored as the commutative series
    sum c_{kl} x^k y^l, a BiSeries truncated at degree n - 2 (at -1 when
    n = 1: every coefficient is beyond the truncation), so sums, scalar multiples and the quotient bracket are series
    arithmetic: ad X and ad Y act on the table as multiplication by x and
    y.  The table is the public read-only attribute ``table``; a table
    given as a dict or a shorter BiSeries is read as a polynomial, and
    entries beyond the truncation are dropped.
    """

    __slots__ = ("table",)
    _CODEC = _Codec("metabelian", ("X", "Y"), (
        _Table("terms", ("k", "l"),
               lambda kl: _chain_name("X" * kl[0] + "Y" * kl[1] + "XY"),
               2, "table", BiSeries),
    ), ("k", "l", "c"))

    def __init__(
        self, truncation: int, a=0, b=0, table: dict | BiSeries | None = None
    ):
        super().__init__(truncation, a, b, table)

    # -- the quotient bracket -------------------------------------------------

    def ad_x(self) -> "MetabelianElement":
        """[X, self]: b goes to B(0,0), B(k,l) to B(k+1,l); the table
        becomes x * table + b."""
        table = self.table.shift(1, 0) + self.b
        return MetabelianElement(self.truncation, 0, 0, table)

    def ad_y(self) -> "MetabelianElement":
        """[Y, self]: a goes to -B(0,0), B(k,l) to B(k,l+1); the table
        becomes y * table - a.

        Prepending Y to the chain sorts into the prefix modulo brackets
        of brackets, which is exactly the quotient relation.
        """
        table = self.table.shift(0, 1) - self.a
        return MetabelianElement(self.truncation, 0, 0, table)

    def subst_negswap(self) -> "MetabelianElement":
        """The element at (-Y, -X): the table becomes -table(-y, -x).

        B(k,l) maps to (-1)^{k+l+1} B(l,k): the k+l+2 letter signs give
        (-1)^{k+l}, the flipped tail [YX] = -[XY] one more.
        """
        (table,) = self._tables()
        table = table.substitute(x=(0, -1), y=(-1, 0))
        return MetabelianElement(self.truncation, -self.b, -self.a, -table)


# ---------------------------------------------------------------------------
# Projection onto the quotient
# ---------------------------------------------------------------------------

def project(e: LieSeries) -> MetabelianElement:
    """Normal form of a free Lie element modulo [[L,L],[L,L]], at the
    series' truncation.

    The element is read off its Lyndon coordinates: those at X and Y, and
    B(k-1,l-1) = (-1)^(l-1) times the one at X^k Y^l.  Every other word
    has a P_w in the ideal, by the factor rule of ``freelie._ideal_level``,
    and is dropped.
    """
    a = b = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    for w, c in e.items():
        if w == "X":
            a = c
        elif w == "Y":
            b = c
        elif _ideal_level(w) == 0:
            k = w.index("Y")
            l = len(w) - k
            table[k - 1, l - 1] = c if l % 2 else -c
    return MetabelianElement(e.truncation, a, b, table)


# ---------------------------------------------------------------------------
# The closed formula for log(e^X e^Y)
# ---------------------------------------------------------------------------

@functools.cache
def h_series(truncation: int) -> BiSeries:
    """The coefficient series h(x,y) of the closed formula.

    h(x,y) = (1/y) (1 - ((e^x - 1)/x) ((x+y)/(e^{x+y} - 1))); the
    numerator has every monomial divisible by y, so the division is
    exact and the result is a genuine power series.  Cached per
    truncation: the closed formula, the commutator equation and the
    checks of both ask for the same ones.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    m = truncation + 1
    t_over_expm1 = BiSeries.named("t_over_expm1", m).substitute(x=(1, 1))
    num = BiSeries.one(m) - BiSeries.named("expm1_over_t", m) * t_over_expm1
    return num.divide_exact(BiSeries.monomial(0, 1, m))


def hausdorff_closed(truncation: int) -> MetabelianElement:
    """log(e^X e^Y) in the quotient: X + Y + sum of h_{kl} B(k,l)."""
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    if truncation < 2:
        return MetabelianElement(truncation, 1, 1)
    return MetabelianElement(truncation, 1, 1, h_series(truncation - 2))


def goldberg_c(truncation: int) -> BiSeries:
    """The series c(x,y) = sum of c_{rs} x^r y^s, r,s >= 1, where c_{rs}
    is the coefficient of the word X^r Y^s in log(e^X e^Y).

    Computed as (x e^x (e^y - 1) - y e^y (e^x - 1)) / (x - y) divided by
    the unit (e^x - e^y)/(x - y); both divisions are exact.
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    m = truncation + 2
    ex = BiSeries.named("exp", m)
    ey = ex.substitute(x=(0, 1))
    e1x = BiSeries.named("expm1", m)
    e1y = e1x.substitute(x=(0, 1))
    num = (ex * e1y).shift(1, 0).truncate(m) - (ey * e1x).shift(0, 1).truncate(m)
    x_minus_y = BiSeries(m, {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
    quotient = num.divide_exact(x_minus_y)
    unit = (ex - ey).divide_exact(x_minus_y)
    return quotient.divide_exact(unit).truncate(truncation)


# ---------------------------------------------------------------------------
# The quotient Zassenhaus equation
# ---------------------------------------------------------------------------

def _zassenhaus_series(truncation: int) -> BiSeries:
    """Operator series of the Zassenhaus solution, as a B-table series:
    ((x+y) e^{-y} - x - y e^{-(x+y)}) / (x y (x+y)), one exact division."""
    m = truncation + 3
    exp = BiSeries.named("exp", m)
    x, y = BiSeries.monomial(1, 0, m), BiSeries.monomial(0, 1, m)
    num = (x + y) * exp.substitute(x=(0, -1)) - x - y * exp.substitute(x=(-1, -1))
    return num.divide_exact(x * y * (x + y))


def zassenhaus_closed(truncation: int) -> MetabelianElement:
    """Sum of the Zassenhaus correction terms C_2 + C_3 + ... in the
    quotient: e^{X+Y} = e^X e^Y e^{C_2} e^{C_3} ... and the C_n commute
    there, so the product of exponentials collapses to exp of the sum.

    Individual degree-n pieces are available via ``degree_part(n)``.
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    return MetabelianElement(truncation, 0, 0, _zassenhaus_series(truncation - 2))


# ---------------------------------------------------------------------------
# The commutator equation
# ---------------------------------------------------------------------------

def kv_solve(truncation: int, a=0, g: BiSeries | None = None) -> MetabelianElement:
    """Solve log(e^X e^Y) - X - Y = [X, F(X,Y)] + [Y, F(-Y,-X)].

    Returns F = a X + (1/4) Y + f(ad X, ad Y) [XY] with

        f = Odd h / (x - y) + (Even h - 1/2) / (2x) + y g,

    where Odd/Even split h by total-degree parity.  Both divisions are
    exact: Odd h vanishes on the diagonal and Even h(0,y) = 1/2.  The
    scalar a and the series g parametrize the full solution set; g must
    satisfy g(-y,-x) = -g(x,y) and is read as a polynomial if its
    truncation falls short.
    """
    n = truncation
    if n < 2:
        raise ValueError("truncation must be at least 2")
    if isinstance(g, int) and g == 0:
        g = None
    h = h_series(n - 1)
    even_h, odd_h = h.parity_split()
    x_minus_y = BiSeries(n - 1, {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
    two_x = BiSeries(n - 1, {(1, 0): Fraction(2)})
    f = odd_h.divide_exact(x_minus_y) + (even_h - Fraction(1, 2)).divide_exact(two_x)
    if g is not None:
        if g.substitute(x=(0, -1), y=(-1, 0)) != -g:
            raise ValueError("g violates antisymmetry")
        if n >= 3:
            f = f + g.padded(n - 3).shift(0, 1)
    return MetabelianElement(n, _as_fraction(a), Fraction(1, 4), f)


def _kv_sides(F: MetabelianElement, truncation: int) -> tuple:
    """The two sides [X, F] + [Y, F(-Y,-X)] and log(e^X e^Y) - X - Y of the
    commutator equation, with F reread at the requested truncation
    (entries beyond it dropped, missing ones counted as zero)."""
    n = truncation
    f = MetabelianElement(n, F.a, F.b, F.table)
    # h at n - 1, cut to n - 2 by the constructor: the series kv_solve read
    return f.ad_x() + f.subst_negswap().ad_y(), MetabelianElement(n, 0, 0, h_series(n - 1))


def kv_verify(F: MetabelianElement, truncation: int) -> bool:
    """Check [X, F] + [Y, F(-Y,-X)] against log(e^X e^Y) - X - Y."""
    lhs, rhs = _kv_sides(F, truncation)
    return lhs == rhs
