"""Exact truncated power series in two commuting variables x, y.

All coefficients are ``fractions.Fraction``; nothing is ever floated.  A
``BiSeries`` knows its coefficients for every total degree <= ``truncation``
and nothing beyond, so binary operations truncate at the smaller bound.
Division is *exact* division: if the divisor does not divide the dividend
term-for-term the operation raises ``InexactDivision`` instead of silently
producing a Laurent-style object (negative powers never exist here).
Every change of variables is one linear substitution,
``BiSeries.substitute``: the named series (``exp``, ``t_over_expm1``,
...) are univariate, and a caller moves them to a linear form in x, y.

This module also holds what every container in the package shares: the
coefficient rule ``_as_fraction`` (Fraction or int, never float or bool),
the JSON/CLI readers ``parse_rational`` and ``parse_int``, the term
printer ``format_terms``, the term codec ``_Codec`` and ``TruncatedSeries``,
the sparse exact series that ``BiSeries``, ``PairSeries``,
``assoc.NCSeries`` and ``freelie.LieSeries`` extend.  ``_QuotientElement``
is the shared shape of the two quotient elements,
``metabelian.MetabelianElement`` and ``tilde.TildeElement``: X and Y
coefficients plus tables stored as series.

The codec is the one reader and writer of JSON and CSV.  A container
declares its ``basis`` tag, the names of its scalars (X and Y) and, per
table, the JSON name and the key fields; ``_Coded`` turns that into
``to_json_dict``, ``from_json_dict`` and ``to_csv``.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "InexactDivision",
    "bernoulli",
    "BiSeries",
    "PairSeries",
    "TruncatedSeries",
    "format_rational",
    "format_terms",
    "parse_int",
    "parse_rational",
]


class InexactDivision(ArithmeticError):
    """Raised when an exact series division leaves a remainder."""


def format_rational(c: Fraction) -> str:
    """Render a rational as ``p/q`` (q > 0, gcd 1; ``/1`` omitted)."""
    return str(Fraction(c))


_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def parse_rational(s: str | int) -> Fraction:
    """Read a rational from text such as ``"-3/4"`` or from an integer.

    This is the JSON and command-line boundary.  Text is an optional sign
    and ASCII digits, then optionally ``/digits`` or ``.digits``; nothing
    else, so no exponent (``1e100000000`` would be expanded in full), no
    whitespace and no underscores, even where ``Fraction`` accepts them.
    A float is refused: its binary value is not the decimal that was
    written.  So is a bool.
    """
    if isinstance(s, str):
        if not _RATIONAL_TEXT.fullmatch(s):
            raise ValueError(f"not a rational: {s!r}")
        return Fraction(s)
    return _as_fraction(s)


def parse_int(v: int) -> int:
    """Read a JSON index or truncation: an ``int``, never float, bool or str."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise TypeError(f"expected an integer, got {type(v).__name__}")


def _refuse_beyond(truncation: int, degrees: Iterable[int]) -> None:
    """JSON input: a term above its declared truncation contradicts it.

    The constructors drop such terms, as truncation requires; a reader
    must not, or input that says two things would be half ignored.
    """
    if max(degrees, default=0) > truncation:
        raise ValueError(f"term beyond the declared truncation {truncation}")


def _refuse_repeats(pairs: Iterable[tuple]) -> dict:
    """JSON input: the (key, coefficient) pairs as a dict, refusing a
    repeated key, whose earlier entries a dict would silently drop; by the
    policy of ``_refuse_beyond``, input that says two things is refused."""
    out: dict = {}
    for k, c in pairs:
        if k in out:
            raise ValueError(f"repeated term {k!r}")
        out[k] = c
    return out


def _as_fraction(v) -> Fraction:
    """The exactness rule for coefficients: Fraction or int, never float or bool."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise TypeError(f"expected a rational scalar, got {type(v).__name__}")


def format_terms(pairs: Iterable[tuple[Fraction, str]]) -> str:
    """Join (coefficient, name) pairs as ``c name + ... - ...``.

    Zero coefficients are skipped, a coefficient of 1 or -1 prints as the
    bare name or its negation, an empty name prints the scalar alone, and
    an empty sum prints as ``0``.
    """
    out = []
    for c, name in pairs:
        if not c:
            continue
        if out:
            out.append(" - " if c < 0 else " + ")
        elif c < 0:
            out.append("-")
        mag = abs(c)
        if not name:
            out.append(format_rational(mag))
        elif mag == 1:
            out.append(name)
        else:
            out.append(f"{format_rational(mag)} {name}")
    return "".join(out) or "0"


# ---------------------------------------------------------------------------
# The term codec: JSON and CSV for every container
# ---------------------------------------------------------------------------

def _flat(key) -> tuple:
    """A key's fields in order: a word, an index pair or a pair of pairs;
    the same for the names of the fields."""
    if isinstance(key, str):
        return (key,)
    return key[0] + key[1] if isinstance(key[0], tuple) else key


def _read_key(term: dict, fields):
    """A JSON term's key: a word as written (its constructor checks it),
    integer indices through ``parse_int``."""
    if isinstance(fields, str):
        return term[fields]
    if isinstance(fields[0], tuple):
        return tuple(_read_key(term, f) for f in fields)
    return tuple(parse_int(term[f]) for f in fields)


def _csv_text(header: Iterable[str], rows: Iterable[dict]) -> str:
    """Rows of dicts under ``header``, one CSV line each; a column a row
    lacks is empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row.get(col, "") for col in header] for row in rows)
    return buf.getvalue()


class _Table(NamedTuple):
    """One table of terms: its JSON list name (the CSV ``kind``) and key
    fields ("word", a pair of index names, or a pair of such pairs); a key
    of degree d is a term of degree d + ``offset``.  In a quotient element
    the table is the series of type ``series`` held in ``slot``."""

    name: str
    fields: object
    offset: int = 0
    slot: str | None = None
    series: type | None = None

    def degree(self, key) -> int:
        return self.offset + (len(key) if isinstance(key, str) else sum(_flat(key)))

    def terms(self, table) -> list:
        """The (key, coefficient) pairs in order of degree, then key."""
        return sorted(table.items(), key=lambda kc: (self.degree(kc[0]), kc[0]))

    def row(self, key, c, **extra) -> dict:
        """A term as its fields and ``c``, after ``extra``."""
        fields = dict(zip(_flat(self.fields), _flat(key)))
        return {**extra, **fields, "c": format_rational(c)}


class _Codec(NamedTuple):
    """A container's JSON and CSV, declared once.

    JSON is ``truncation``, the ``basis`` tag unless it is None, the
    ``scalars`` (X and Y) and one term list per table.  CSV has one row
    per term under ``csv``; a row also knows its ``kind`` (the table) and
    its ``degree``, and when the header has a ``kind`` column the nonzero
    scalars come first as rows of their own.
    """

    basis: str | None
    scalars: tuple[str, ...]
    tables: tuple[_Table, ...]
    csv: tuple[str, ...] = ()

    def to_json(self, truncation: int, scalars, tables) -> dict:
        out: dict = {"truncation": truncation}
        if self.basis:
            out["basis"] = self.basis
        out.update(zip(self.scalars, map(format_rational, scalars)))
        for spec, table in zip(self.tables, tables):
            out[spec.name] = [spec.row(k, c) for k, c in spec.terms(table)]
        return out

    def to_csv(self, scalars, tables, header=None) -> str:
        header = header or self.csv
        rows = [
            {"kind": name, "c": format_rational(c)}
            for name, c in zip(self.scalars, scalars)
            if c and "kind" in header
        ]
        for spec, table in zip(self.tables, tables):
            rows += [
                spec.row(k, c, kind=spec.name, degree=spec.degree(k))
                for k, c in spec.terms(table)
            ]
        return _csv_text(header, rows)

    def from_json(self, data: dict, build):
        """Read what ``to_json`` writes, through the constructor ``build``.

        Checks run in one order: integers and rationals are parsed, the
        constructor checks the truncation and the keys, then a repeated
        key, a term beyond the truncation and a basis tag that names
        another container are refused.  A series needs its term list; the
        scalars and tables of a quotient element may be absent, as zero.
        """
        n = parse_int(data["truncation"])
        scalars = [parse_rational(data.get(name, 0)) for name in self.scalars]
        pairs = [
            [
                (_read_key(t, spec.fields), parse_rational(t["c"]))
                for t in (data.get(spec.name, ()) if self.scalars else data[spec.name])
            ]
            for spec in self.tables
        ]
        out = build(n, *scalars, *map(dict, pairs))
        keys = [_refuse_repeats(p) for p in pairs]
        for spec, table in zip(self.tables, keys):
            _refuse_beyond(n, map(spec.degree, table))
        tag = data.get("basis")
        if tag is not None and tag != self.basis:
            raise ValueError(f"basis {tag!r} names another container")
        return out


class _Coded:
    """``to_json_dict``, ``from_json_dict`` and ``to_csv`` through the
    class's ``_CODEC``, from the parts ``_codec_parts`` gives:
    (truncation, scalars, tables)."""

    __slots__ = ()
    _CODEC: _Codec

    def to_json_dict(self) -> dict:
        return self._CODEC.to_json(*self._codec_parts())

    @classmethod
    def from_json_dict(cls, data: dict):
        return cls._CODEC.from_json(data, cls)

    def to_csv(self, header=None) -> str:
        """One row per term, under the container's header or ``header``."""
        _, scalars, tables = self._codec_parts()
        return self._CODEC.to_csv(scalars, tables, header)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

@functools.cache
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n in the B_1 = -1/2 convention.

    From sum_{k<n} C(n+1, k) B_k = -(n+1) B_n (n >= 1), cached per n.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, k) * bernoulli(k) for k in range(n)) / (n + 1)


# ---------------------------------------------------------------------------
# Named univariate coefficient streams
# ---------------------------------------------------------------------------

def _named_coefficient(kind: str, n: int) -> Fraction:
    if kind == "exp":
        return Fraction(1, factorial(n))
    if kind == "expm1":
        return Fraction(0) if n == 0 else Fraction(1, factorial(n))
    if kind == "expm1_over_t":
        return Fraction(1, factorial(n + 1))
    if kind == "t_over_expm1":
        return bernoulli(n) / factorial(n)
    if kind == "log1p":
        return Fraction(0) if n == 0 else Fraction((-1) ** (n - 1), n)
    raise ValueError(f"unknown named series {kind!r}")


# ---------------------------------------------------------------------------
# The truncated exact-series base
# ---------------------------------------------------------------------------

class TruncatedSeries(_Coded):
    """A sparse map from monomials to ``Fraction``s, cut at a total degree.

    A subclass names the total degree of its monomial keys in the static
    ``_degree``; it, or the subclass constructor, refuses a malformed key.
    Terms beyond the truncation and zero coefficients are dropped on
    construction, sums truncate at the smaller bound, and the constant
    monomial is the key named in ``_constant_key``, ``(0, 0)`` unless a
    subclass says otherwise; a subclass without one sets it to None and
    refuses constants, so scalar ``+`` and ``-`` too.  Instances are
    immutable and compare equal only to a series of the same type and
    truncation with the same terms.  Its ``_CODEC`` has one table: the
    series itself.
    """

    __slots__ = ("truncation", "_coeffs")
    _constant_key = (0, 0)

    def __init__(self, truncation: int, coeffs: dict | None = None):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        object.__setattr__(self, "truncation", int(truncation))
        clean: dict = {}
        if coeffs:
            degree = self._degree
            for k, v in coeffs.items():
                if degree(k) > truncation:
                    continue
                c = _as_fraction(v)
                if c:
                    clean[k] = c
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, truncation: int):
        return cls(truncation)

    @classmethod
    def constant(cls, truncation: int, c):
        c = _as_fraction(c)
        if cls._constant_key is None:
            raise TypeError(f"{cls.__name__} has no constant term")
        return cls(truncation, {cls._constant_key: c})

    @classmethod
    def one(cls, truncation: int):
        return cls.constant(truncation, 1)

    def is_zero(self) -> bool:
        return not self._coeffs

    def _codec_parts(self) -> tuple:
        return self.truncation, (), (self,)

    def items(self):
        """The nonzero (key, coefficient) pairs, in no particular order."""
        return self._coeffs.items()

    def min_degree(self) -> int | None:
        return min(map(self._degree, self._coeffs), default=None)

    def degree_part(self, d: int):
        """The terms of total degree ``d``, at the same truncation."""
        degree = self._degree
        return type(self)(
            self.truncation, {k: c for k, c in self._coeffs.items() if degree(k) == d}
        )

    def __add__(self, other):
        if not isinstance(other, type(self)):
            other = self.constant(self.truncation, other)
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) + c
        return type(self)(min(self.truncation, other.truncation), out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.truncation, {k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            other = self.constant(self.truncation, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled_by(self, scalar):
        s = _as_fraction(scalar)
        return type(self)(self.truncation, {k: s * c for k, c in self._coeffs.items()})

    __mul__ = __rmul__ = _scaled_by

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.truncation == other.truncation
            and self._coeffs == other._coeffs
        )

    __hash__ = None

    def agrees_with(self, other, through: int | None = None) -> bool:
        """Equality up to the smaller truncation (or ``through``)."""
        n = min(self.truncation, other.truncation)
        if through is not None:
            n = min(n, through)
        return self.truncate(n) == other.truncate(n)

    def truncate(self, n: int):
        if n > self.truncation:
            raise ValueError("cannot raise truncation")
        return type(self)(n, self._coeffs)

    def padded(self, n: int):
        """Reinterpret as a polynomial known to all degrees <= ``n``."""
        if n == self.truncation:
            return self
        return type(self)(n, self._coeffs)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(truncation={self.truncation}, "
            f"{len(self._coeffs)} terms)"
        )


# ---------------------------------------------------------------------------
# BiSeries
# ---------------------------------------------------------------------------

class BiSeries(TruncatedSeries):
    """Commutative power series in x, y truncated at a total degree.

    A key (i, j) stands for the monomial x^i y^j.
    """

    __slots__ = ()
    _CODEC = _Codec(None, (), (_Table("terms", ("i", "j")),), ("i", "j", "c"))

    @staticmethod
    def _degree(key: tuple[int, int]) -> int:
        i, j = key
        if i < 0 or j < 0:
            raise ValueError("exponents must be nonnegative")
        return i + j

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, i: int, j: int, truncation: int, c=1) -> "BiSeries":
        return cls(truncation, {(i, j): _as_fraction(c)})

    @classmethod
    def named(cls, kind: str, truncation: int) -> "BiSeries":
        """A named univariate series sum a_n x^n; ``substitute`` moves it
        to a linear form in x, y.

        ``kind`` is one of ``exp``, ``expm1``, ``expm1_over_t``
        (coefficients 1/(n+1)!), ``t_over_expm1`` (coefficients B_n/n!)
        or ``log1p``.
        """
        return cls(
            truncation,
            {(n, 0): _named_coefficient(kind, n) for n in range(truncation + 1)},
        )

    # -- inspection --------------------------------------------------------

    def coefficient(self, i: int, j: int) -> Fraction:
        if self._degree((i, j)) > self.truncation:
            raise ValueError("coefficient beyond truncation")
        return self._coeffs.get((i, j), Fraction(0))

    def terms(self) -> Iterator[tuple[int, int, Fraction]]:
        """Nonzero terms sorted by (total degree, x-exponent)."""
        for (i, j) in sorted(self._coeffs, key=lambda k: (k[0] + k[1], k[0])):
            yield i, j, self._coeffs[(i, j)]

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            return self._scaled_by(other)
        n = min(self.truncation, other.truncation)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._coeffs.items():
            d1 = i1 + j1
            if d1 > n:
                continue
            for (i2, j2), c2 in other._coeffs.items():
                if d1 + i2 + j2 > n:
                    continue
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BiSeries(n, out)

    __rmul__ = __mul__

    # -- truncation management ---------------------------------------------

    def shift(self, di: int, dj: int) -> "BiSeries":
        """Multiply by the monomial x^di y^dj; truncation grows by di+dj."""
        if di < 0 or dj < 0:
            raise ValueError("shift exponents must be nonnegative")
        return BiSeries(
            self.truncation + di + dj,
            {(i + di, j + dj): c for (i, j), c in self._coeffs.items()},
        )

    # -- substitution and splits ---------------------------------------------

    def substitute(self, x=(1, 0), y=(0, 1)) -> "BiSeries":
        """The series s(a1 x + b1 y, a2 x + b2 y) for ``x=(a1, b1)`` and
        ``y=(a2, b2)``, at the same truncation; the coefficients are
        rational and each pair defaults to the identity, so
        ``substitute(x=(0, -1), y=(-1, 0))`` is s(-y, -x).
        """
        px = _linear_powers(x, max((i for i, _ in self._coeffs), default=0))
        py = _linear_powers(y, max((j for _, j in self._coeffs), default=0))
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self._coeffs.items():
            for (p1, q1), u in px[i].items():
                cu = c * u
                for (p2, q2), v in py[j].items():
                    key = (p1 + p2, q1 + q2)
                    out[key] = out.get(key, 0) + cu * v
        return BiSeries(self.truncation, out)

    def parity_split(self) -> tuple["BiSeries", "BiSeries"]:
        """(even, odd) parts by parity of the total degree."""
        even = {k: v for k, v in self._coeffs.items() if (k[0] + k[1]) % 2 == 0}
        odd = {k: v for k, v in self._coeffs.items() if (k[0] + k[1]) % 2 == 1}
        return BiSeries(self.truncation, even), BiSeries(self.truncation, odd)

    # -- inversion and exact division ----------------------------------------

    def _by_degree(self) -> list[dict[tuple[int, int], Fraction]]:
        out: list[dict] = [dict() for _ in range(self.truncation + 1)]
        for (i, j), c in self._coeffs.items():
            out[i + j][(i, j)] = c
        return out

    def inverse(self) -> "BiSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if not self._coeffs.get((0, 0)):
            raise ValueError("non-unit series")
        return BiSeries.one(self.truncation).divide_exact(self)

    def divide_exact(self, divisor: "BiSeries") -> "BiSeries":
        """Exact quotient q with q * divisor == self (up to truncation).

        The quotient truncation is ``self.truncation`` minus the lowest
        total degree of the divisor.  Raises InexactDivision when any
        homogeneous step leaves a remainder, e.g. ``(1 + x) / y``.
        """
        v = divisor.min_degree()
        if v is None:
            raise ZeroDivisionError("zero divisor series")
        if self.truncation < v:
            raise ValueError("dividend truncation below divisor valuation")
        nq = self.truncation - v
        a = self._by_degree()
        d = divisor._by_degree()
        for m in range(min(v, len(a))):
            if a[m]:
                raise InexactDivision("inexact division")
        d_lead = d[v]
        q: list[dict[tuple[int, int], Fraction]] = [dict() for _ in range(nq + 1)]
        for m in range(nq + 1):
            rem = dict(a[m + v])
            for i in range(1, m + 1):
                if v + i > divisor.truncation or not d[v + i]:
                    continue
                for (i1, j1), c1 in q[m - i].items():
                    for (i2, j2), c2 in d[v + i].items():
                        key = (i1 + i2, j1 + j2)
                        rem[key] = rem.get(key, Fraction(0)) - c1 * c2
            q[m] = _divide_homogeneous(rem, m + v, d_lead, v)
        coeffs = {k: val for part in q for k, val in part.items()}
        return BiSeries(nq, coeffs)

    def __str__(self) -> str:
        pairs = []
        for i, j, c in self.terms():
            factors = []
            for name, e in (("x", i), ("y", j)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            pairs.append((c, " ".join(factors)))
        return format_terms(pairs)


def _linear_powers(form, n: int) -> list[dict[tuple[int, int], Fraction]]:
    """(a x + b y)^i for i = 0..n, each without zero terms, for form (a, b).

    A monomial form keeps one term per power.
    """
    a, b = map(_as_fraction, form)
    linear = [(step, c) for step, c in (((1, 0), a), ((0, 1), b)) if c]
    out = [{(0, 0): Fraction(1)}]
    for _ in range(n):
        power: dict[tuple[int, int], Fraction] = {}
        for (p, q), u in out[-1].items():
            for (dp, dq), c in linear:
                key = (p + dp, q + dq)
                power[key] = power.get(key, 0) + u * c
        out.append(power)
    return out


def _divide_homogeneous(
    num: dict[tuple[int, int], Fraction],
    n: int,
    den: dict[tuple[int, int], Fraction],
    v: int,
) -> dict[tuple[int, int], Fraction]:
    """Exact division of a homogeneous degree-n part by a degree-v part.

    Both sides are univariate in t = x/y after pulling out powers of y, so
    this is ordinary polynomial division with a zero-remainder requirement.
    """
    num = {k: c for k, c in num.items() if c}
    if not num:
        return {}
    a = [Fraction(0)] * (n + 1)
    for (i, _), c in num.items():
        a[i] = c
    b = [Fraction(0)] * (v + 1)
    for (i, _), c in den.items():
        b[i] = c
    db = max(i for i, c in enumerate(b) if c)
    qdeg_max = n - v
    q = [Fraction(0)] * (n - db + 1)
    r = a[:]
    for k in range(n - db, -1, -1):
        c = r[k + db]
        if not c:
            continue
        if k > qdeg_max:
            raise InexactDivision("inexact division")
        c /= b[db]
        q[k] = c
        for i, bc in enumerate(b):
            if bc:
                r[k + i] -= c * bc
    if any(r):
        raise InexactDivision("inexact division")
    return {(i, n - v - i): c for i, c in enumerate(q) if c and i <= qdeg_max}


# ---------------------------------------------------------------------------
# PairSeries
# ---------------------------------------------------------------------------

class PairSeries(TruncatedSeries):
    """Brackets of two bivariate monomials, truncated at a total degree.

    A key ((k, l), (m, n)) stands for [x^k y^l, x^m y^n] and has degree
    k + l + m + n.  Keys are kept in the normal order (k, l) > (m, n):
    a reversed key flips the sign of its coefficient, so mirrored keys
    merge, and a bracket [A, A] is dropped.
    """

    __slots__ = ()
    _constant_key = None
    _CODEC = _Codec(None, (), (_Table("terms", (("k", "l"), ("m", "n"))),))

    def __init__(self, truncation: int, coeffs: dict | None = None):
        normal: dict = {}
        for key, c in (coeffs or {}).items():
            c = _as_fraction(c)
            u, v = key
            if u == v:
                self._degree(key)  # zero, but a malformed key is still refused
                continue
            if u < v:
                key, c = (v, u), -c
            normal[key] = normal.get(key, 0) + c
        super().__init__(truncation, normal)

    @staticmethod
    def _degree(key) -> int:
        (k, l), (m, n) = key
        if min(k, l, m, n) < 0:
            raise ValueError("negative basis index")
        return k + l + m + n

    def coefficient(self, u: tuple[int, int], v: tuple[int, int]) -> Fraction:
        if self._degree((u, v)) > self.truncation:
            raise ValueError("coefficient beyond truncation")
        if u < v:
            return -self._coeffs.get((v, u), Fraction(0))
        return self._coeffs.get((u, v), Fraction(0))

    def terms(self) -> list:
        """Nonzero (key, coefficient) pairs sorted by (total degree, key)."""
        return sorted(self._coeffs.items(), key=lambda kc: (self._degree(kc[0]), kc[0]))


# ---------------------------------------------------------------------------
# The shape of a quotient element
# ---------------------------------------------------------------------------

class _QuotientElement(_Coded):
    """a X + b Y plus tables of bracket coefficients, cut at a total degree.

    A subclass declares its tables in the ``_CODEC`` it reads and writes
    JSON and CSV with, each a ``_Table`` with a slot, a series type and an
    offset: a table key of degree d stands for a bracket of degree
    d + offset, so the table is cut at ``truncation - offset`` and is
    empty below that.  A table given as a dict or as a series at another
    truncation is read as a polynomial.  Sums truncate at the smaller
    bound; instances are immutable and compare equal only to an element
    of the same type and truncation with the same terms.
    """

    __slots__ = ("truncation", "a", "b")

    def __init__(self, truncation: int, a=0, b=0, *tables):
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        for spec, t in zip(self._CODEC.tables, tables):
            n = truncation - spec.offset
            cls = spec.series
            if not isinstance(t, cls):
                t = cls(max(n, 0), t)
            object.__setattr__(self, spec.slot, t.padded(n) if n >= 0 else cls.zero(0))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, truncation: int):
        return cls(truncation)

    def _tables(self) -> list:
        return [getattr(self, spec.slot) for spec in self._CODEC.tables]

    def _codec_parts(self) -> tuple:
        return self.truncation, (self.a, self.b), self._tables()

    def is_zero(self) -> bool:
        return not self.a and not self.b and all(t.is_zero() for t in self._tables())

    def degree_part(self, d: int):
        """The terms of degree ``d``, at the same truncation."""
        ab = (self.a, self.b) if d == 1 else (0, 0)
        parts = [
            t.degree_part(d - spec.offset)
            for t, spec in zip(self._tables(), self._CODEC.tables)
        ]
        return type(self)(self.truncation, *ab, *parts)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        tables = [s + o for s, o in zip(self._tables(), other._tables())]
        n = min(self.truncation, other.truncation)
        return type(self)(n, self.a + other.a, self.b + other.b, *tables)

    def __neg__(self):
        return -1 * self

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        s = _as_fraction(scalar)
        tables = [t * s for t in self._tables()]
        return type(self)(self.truncation, s * self.a, s * self.b, *tables)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.truncation == other.truncation
            and self.a == other.a
            and self.b == other.b
            and self._tables() == other._tables()
        )

    __hash__ = None
