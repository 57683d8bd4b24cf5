"""Exact truncated power series in two commuting variables x, y.

Every coefficient is rational and nothing is ever floated: a series holds
one positive denominator and a dict of nonzero integer numerators, with no
common factor among them all, so equal series store equal integers and
``==`` compares integers.  A ``Fraction`` is built only where a value
leaves: ``coefficient``, ``items``, ``terms``, printing and JSON.  A
``BiSeries`` knows its coefficients for every total degree <= ``truncation``
and nothing beyond, so binary operations, exact division included,
truncate at the smaller bound.  Division is *exact* division: if the
divisor does not divide the dividend term-for-term the operation raises
``InexactDivision`` instead of silently producing a Laurent-style object
(negative powers never exist here).  Every change of variables is one
linear substitution, ``BiSeries.substitute``: the named series (``exp``,
``t_over_expm1``, ...) are univariate, and a caller moves them to a
linear form in x, y.  One kernel, ``_add_product``, multiplies two
coefficient dicts: integer numerators for ``*`` and ``substitute``,
``Fraction``s for ``divide_exact``, which is long division on one running
remainder and stores its quotient once.  The powers of a linear form are
read off the binomial theorem.

This module also holds what every container in the package shares: the
coefficient rule ``_as_fraction`` (Fraction or int, never float or bool),
the JSON/CLI readers ``parse_rational`` and ``parse_int``, the second also
the truncation rule of every constructor, the term
printer ``format_terms``, the term codec ``_Codec`` and ``TruncatedSeries``,
the sparse exact series that ``BiSeries``, ``PairSeries``,
``assoc.NCSeries`` and ``freelie.LieSeries`` extend.  ``_QuotientElement``
is the shared shape of the two quotient elements,
``metabelian.MetabelianElement`` and ``tilde.TildeElement``: X and Y
coefficients plus tables stored as series, in public read-only slots.

The codec is the one reader and writer of JSON, CSV and text.  A
container declares its ``basis`` tag, the names of its scalars (X and Y)
and, per table, the JSON name, the key fields and the printed label of a
key; ``_Coded``, the one base of every container, turns that into
``to_json_dict``, ``from_json_dict``, ``to_csv``, ``__str__`` and
``__repr__``, and holds ``zero``, immutability and ``==``.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Callable, Iterable, NamedTuple

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
    """Read an index or a truncation: an ``int``, never float, bool or str."""
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
    """One table of terms: its JSON list name (the CSV ``kind``), key
    fields ("word", a pair of index names, or a pair of such pairs) and
    the printed ``label`` of a key; a key of degree d, by its series'
    ``_degree``, is a term of degree d + ``offset``.  In a quotient
    element the table is the series of type ``series`` held in ``slot``.
    Text lists the terms in the codec's order, or by degree and then
    ``text_key`` when one is given.
    """

    name: str
    fields: object
    label: Callable[..., str]
    offset: int = 0
    slot: str | None = None
    series: type | None = None
    text_key: Callable | None = None

    def terms(self, table, by=None) -> list:
        """The (key, coefficient) pairs of the series ``table`` in order of
        degree, then key (or ``by(key)``)."""
        by = by or (lambda k: k)
        return sorted(table.items(), key=lambda kc: (table._degree(kc[0]), by(kc[0])))

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


class _Coded:
    """The one base of every container: JSON, CSV, text and ``repr`` from
    ``_CODEC`` and the parts ``_codec_parts`` gives (truncation, scalars,
    tables); ``zero``; immutability; ``==`` by type and ``_key()``."""

    __slots__ = ()
    _CODEC: _Codec

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, truncation: int):
        return cls(truncation)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    __hash__ = None

    def to_json_dict(self) -> dict:
        n, scalars, tables = self._codec_parts()
        out: dict = {"truncation": n}
        if self._CODEC.basis:
            out["basis"] = self._CODEC.basis
        out.update(zip(self._CODEC.scalars, map(format_rational, scalars)))
        for spec, table in zip(self._CODEC.tables, tables):
            out[spec.name] = [spec.row(k, c) for k, c in spec.terms(table)]
        return out

    @classmethod
    def from_json_dict(cls, data: dict):
        """Read what ``to_json_dict`` writes.

        Checks run in one order: integers and rationals are parsed, the
        constructor checks the truncation and the keys, then a repeated
        key, a term beyond the truncation and a basis tag that names
        another container are refused.  A series needs its term list; the
        scalars and tables of a quotient element may be absent, as zero.
        """
        codec = cls._CODEC
        n = parse_int(data["truncation"])
        scalars = [parse_rational(data.get(name, 0)) for name in codec.scalars]
        pairs = [
            [
                (_read_key(t, spec.fields), parse_rational(t["c"]))
                for t in (data.get(spec.name, ()) if codec.scalars else data[spec.name])
            ]
            for spec in codec.tables
        ]
        out = cls(n, *scalars, *map(dict, pairs))
        keys = [_refuse_repeats(p) for p in pairs]
        for spec, table in zip(codec.tables, keys):
            degree = (spec.series or cls)._degree
            _refuse_beyond(n, (spec.offset + degree(k) for k in table))
        tag = data.get("basis")
        if tag is not None and tag != codec.basis:
            raise ValueError(f"basis {tag!r} names another container")
        return out

    def to_csv(self, header=None) -> str:
        """One row per term, under the container's header or ``header``."""
        header = header or self._CODEC.csv
        _, scalars, tables = self._codec_parts()
        rows = [
            {"kind": name, "c": format_rational(c)}
            for name, c in zip(self._CODEC.scalars, scalars)
            if c and "kind" in header
        ]
        for spec, table in zip(self._CODEC.tables, tables):
            rows += [
                spec.row(k, c, kind=spec.name, degree=spec.offset + table._degree(k))
                for k, c in spec.terms(table)
            ]
        return _csv_text(header, rows)

    def __str__(self) -> str:
        """The scalars under their names, then each table's terms under
        its labels, joined by ``format_terms``."""
        _, scalars, tables = self._codec_parts()
        pairs = list(zip(scalars, self._CODEC.scalars))
        for spec, table in zip(self._CODEC.tables, tables):
            pairs += [(c, spec.label(k)) for k, c in spec.terms(table, spec.text_key)]
        return format_terms(pairs)

    def __repr__(self) -> str:
        n, scalars, tables = self._codec_parts()
        count = sum(map(bool, scalars)) + sum(len(t.items()) for t in tables)
        return f"{type(self).__name__}(truncation={n}, {count} terms)"


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
    """A sparse map from monomials to rationals, cut at a total degree.

    A subclass names the total degree of its monomial keys in the static
    ``_degree``; it, or the subclass constructor, refuses a malformed key.
    Terms beyond the truncation and zero coefficients are dropped on
    construction, sums truncate at the smaller bound, and the constant
    monomial is the key named in ``_constant_key``, ``(0, 0)`` unless a
    subclass says otherwise; a subclass without one sets it to None and
    refuses constants, so scalar ``+`` and ``-`` too.  The terms are
    stored as ``_num``, nonzero integer numerators, over ``_den``, one
    positive denominator with no factor common to them all; its key for
    ``==`` is the truncation and that pair.  Kernels read and write the
    pair directly and build their result with ``_of``.  Its ``_CODEC``
    has one table: the series itself, whose order ``terms`` lists.
    """

    __slots__ = ("truncation", "_den", "_num")
    _constant_key = (0, 0)

    def __init__(self, truncation: int, coeffs: dict | None = None):
        truncation = parse_int(truncation)
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        degree = self._degree
        terms = {k: _as_fraction(v) for k, v in (coeffs or {}).items() if degree(k) <= truncation}
        den = lcm(*(c.denominator for c in terms.values()))
        num = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
        self._fill(truncation, num, den)

    def _fill(self, truncation: int, num: dict, den: int) -> None:
        """Store ``num / den`` for a positive ``den``: zero numerators
        dropped and the factor common to all divided out."""
        num = {k: c for k, c in num.items() if c}
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: c // g for k, c in num.items()}
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_num", num)

    @classmethod
    def _of(cls, truncation: int, num: dict, den: int = 1, cut: bool = False):
        """The series ``num / den`` from integer numerators under keys a
        kernel made, so unchecked; with ``cut``, keys beyond the
        truncation are dropped."""
        if cut:
            degree = cls._degree
            num = {k: c for k, c in num.items() if degree(k) <= truncation}
        out = object.__new__(cls)
        out._fill(truncation, num, den)
        return out

    def _over(self, den: int) -> dict:
        """The numerators over ``den``, a multiple of the denominator."""
        f = den // self._den
        return {k: c * f for k, c in self._num.items()}

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
        return not self._num

    def _codec_parts(self) -> tuple:
        return self.truncation, (), (self,)

    def _key(self) -> tuple:
        return self.truncation, self._den, self._num

    def items(self):
        """The nonzero (key, coefficient) pairs, in no particular order."""
        den = self._den
        return {k: Fraction(c, den) for k, c in self._num.items()}.items()

    def terms(self) -> list:
        """The nonzero (key, coefficient) pairs in the codec's order: by
        degree, then key."""
        return self._CODEC.tables[0].terms(self)

    def min_degree(self) -> int | None:
        return min(map(self._degree, self._num), default=None)

    def degree_part(self, d: int):
        """The terms of total degree ``d``, at the same truncation."""
        degree = self._degree
        part = {k: c for k, c in self._num.items() if degree(k) == d}
        return self._of(self.truncation, part, self._den)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            other = self.constant(self.truncation, other)
        n = min(self.truncation, other.truncation)
        a, b = self.padded(n), other.padded(n)
        den = lcm(a._den, b._den)
        out = a._over(den)
        for k, c in b._over(den).items():
            out[k] = out.get(k, 0) + c
        return self._of(n, out, den)

    __radd__ = __add__

    def __neg__(self):
        return self._of(self.truncation, {k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            other = self.constant(self.truncation, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _times(self, scalar):
        s = _as_fraction(scalar)
        num = {k: c * s.numerator for k, c in self._num.items()}
        return self._of(self.truncation, num, self._den * s.denominator)

    __mul__ = __rmul__ = _times

    def agrees_with(self, other, through: int | None = None) -> bool:
        """Equality up to the smaller truncation (or ``through``)."""
        n = min(self.truncation, other.truncation)
        if through is not None:
            n = min(n, through)
        return self.truncate(n) == other.truncate(n)

    def truncate(self, n: int):
        if n > self.truncation:
            raise ValueError("cannot raise truncation")
        if parse_int(n) < 0:
            raise ValueError("truncation must be nonnegative")
        return self.padded(n)

    def padded(self, n: int):
        """Reinterpret as a polynomial known to all degrees <= ``n``; at
        ``n = -1``, which the constructor refuses, no degree is known."""
        if n == self.truncation:
            return self
        return self._of(n, self._num, self._den, cut=True)


# ---------------------------------------------------------------------------
# BiSeries
# ---------------------------------------------------------------------------

def _monomial(key: tuple[int, int]) -> str:
    """x^i y^j as printed: ``x^2 y``, ``x``, and empty for the constant."""
    return " ".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip("xy", key) if e
    )


class BiSeries(TruncatedSeries):
    """Commutative power series in x, y truncated at a total degree.

    A key (i, j) stands for the monomial x^i y^j.
    """

    __slots__ = ()
    _CODEC = _Codec(None, (), (_Table("terms", ("i", "j"), _monomial),), ("i", "j", "c"))

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
        return Fraction(self._num.get((i, j), 0), self._den)

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            return self._times(other)
        n = min(self.truncation, other.truncation)
        out: dict[tuple[int, int], int] = {}
        _add_product(out, self._num, other._num, n)
        return BiSeries._of(n, out, self._den * other._den)

    __rmul__ = __mul__

    # -- truncation management ---------------------------------------------

    def shift(self, di: int, dj: int) -> "BiSeries":
        """Multiply by the monomial x^di y^dj; truncation grows by di+dj."""
        if di < 0 or dj < 0:
            raise ValueError("shift exponents must be nonnegative")
        shifted = {(i + di, j + dj): c for (i, j), c in self._num.items()}
        return BiSeries._of(self.truncation + di + dj, shifted, self._den)

    # -- substitution and splits ---------------------------------------------

    def substitute(self, x=(1, 0), y=(0, 1)) -> "BiSeries":
        """The series s(a1 x + b1 y, a2 x + b2 y) for ``x=(a1, b1)`` and
        ``y=(a2, b2)``, at the same truncation; the coefficients are
        rational and each pair defaults to the identity, so
        ``substitute(x=(0, -1), y=(-1, 0))`` is s(-y, -x).
        """
        qx, px = _linear_powers(x, {i for i, _ in self._num})
        qy, py = _linear_powers(y, {j for _, j in self._num})
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in self._num.items():
            _add_product(out, px[i], py[j], self.truncation, c)
        return BiSeries._of(self.truncation, out, self._den * qx * qy)

    def parity_split(self) -> tuple["BiSeries", "BiSeries"]:
        """(even, odd) parts by parity of the total degree."""
        parts = [{k: c for k, c in self._num.items() if sum(k) % 2 == r} for r in (0, 1)]
        return tuple(BiSeries._of(self.truncation, p, self._den) for p in parts)

    # -- inversion and exact division ----------------------------------------

    def inverse(self) -> "BiSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if not self._num.get((0, 0)):
            raise ValueError("non-unit series")
        return BiSeries.one(self.truncation).divide_exact(self)

    def divide_exact(self, divisor: "BiSeries") -> "BiSeries":
        """Exact quotient q with q * divisor == self (up to truncation).

        The quotient is known through the smaller truncation of the two,
        as for ``*``, minus the lowest total degree v of the divisor.  It
        is long division on one running remainder, lowest degree first
        and within a degree highest power of x first: each term is
        divided by the divisor's degree-v term with the highest power of
        x, and that quotient term times the divisor is subtracted.  It
        runs on ``Fraction``s, as the quotient's denominator is known
        only at the end, and stores the quotient once.  A
        quotient term with a negative exponent is a remainder, and raises
        InexactDivision, e.g. for ``(1 + x) / y``.
        """
        v = divisor.min_degree()
        if v is None:
            raise ZeroDivisionError("zero divisor series")
        if self.truncation < v:
            raise ValueError("dividend truncation below divisor valuation")
        n = min(self.truncation, divisor.truncation)
        (a, b), lead = max((k, c) for k, c in divisor.items() if sum(k) == v)
        minus_divisor = {k: -c for k, c in divisor.items()}
        rem = dict(self.items())
        q: dict[tuple[int, int], Fraction] = {}
        for d in range(n + 1):
            for i in range(d, -1, -1):
                c = rem.get((i, d - i))
                if not c:
                    continue
                key = (i - a, d - i - b)
                if min(key) < 0:
                    raise InexactDivision("inexact division")
                q[key] = c = c / lead
                _add_product(rem, {key: c}, minus_divisor, n)
        return BiSeries(n - v, q)


def _add_product(out: dict, p: dict, q: dict, n: int, c=1) -> None:
    """Add c p q into ``out``, dropping terms of total degree above ``n``.

    The one product of two coefficient dicts: ``*``, ``substitute`` and
    ``divide_exact`` all multiply through it, the first two on integer
    numerators.
    """
    for (i1, j1), c1 in p.items():
        room = n - i1 - j1
        if room < 0:
            continue
        if c != 1:
            c1 *= c
        for (i2, j2), c2 in q.items():
            if i2 + j2 <= room:
                key = (i1 + i2, j1 + j2)
                prev = out.get(key)
                out[key] = c1 * c2 if prev is None else prev + c1 * c2


def _linear_powers(form, exponents: Iterable[int]) -> tuple[int, dict[int, dict]]:
    """(a x + b y)^i for each i in ``exponents``, for form (a, b), read
    off the binomial theorem: sum of C(i, k) a^k b^(i-k) x^k y^(i-k).

    With a = A/q and b = B/q over the least common denominator q, all
    powers are integer dicts over q^t, t the largest exponent: the i-th
    is (A x + B y)^i q^(t-i).  A monomial form gives its one term, so a
    large exponent costs one power of a scalar.
    """
    a, b = map(_as_fraction, form)
    q, t = lcm(a.denominator, b.denominator), max(exponents, default=0)
    a, b = (c.numerator * q // c.denominator for c in (a, b))
    if not (a and b):
        c = a or b
        return q**t, {i: {(i, 0) if a else (0, i): c**i * q ** (t - i)} for i in exponents}
    return q**t, {
        i: {(k, i - k): comb(i, k) * a**k * b ** (i - k) * q ** (t - i) for k in range(i + 1)}
        for i in exponents
    }


# ---------------------------------------------------------------------------
# PairSeries
# ---------------------------------------------------------------------------

def _pair_name(key) -> str:
    """[x^k y^l, x^m y^n] as printed."""
    return "[{}, {}]".format(*(_monomial(u) or "1" for u in key))


class PairSeries(TruncatedSeries):
    """Brackets of two bivariate monomials, truncated at a total degree.

    A key ((k, l), (m, n)) stands for [x^k y^l, x^m y^n] and has degree
    k + l + m + n.  Keys are kept in the normal order (k, l) > (m, n):
    a reversed key flips the sign of its coefficient, so mirrored keys
    merge, and a bracket [A, A] is dropped.  A key prints as
    ``[x^2 y, 1]``, the constant monomial as 1.
    """

    __slots__ = ()
    _constant_key = None
    _CODEC = _Codec(None, (), (_Table("terms", (("k", "l"), ("m", "n")), _pair_name),))

    def _fill(self, truncation: int, num: dict, den: int) -> None:
        """Store each term under its key in the normal order: a reversed
        key flips the sign, and a bracket [A, A] is dropped."""
        normal: dict = {}
        for (u, v), c in num.items():
            if u != v:
                key, c = ((u, v), c) if u > v else ((v, u), -c)
                normal[key] = normal.get(key, 0) + c
        super()._fill(truncation, normal, den)

    @staticmethod
    def _degree(key) -> int:
        (k, l), (m, n) = key
        if min(k, l, m, n) < 0:
            raise ValueError("negative basis index")
        return k + l + m + n

    def coefficient(self, u: tuple[int, int], v: tuple[int, int]) -> Fraction:
        if self._degree((u, v)) > self.truncation:
            raise ValueError("coefficient beyond truncation")
        c = -self._num.get((v, u), 0) if u < v else self._num.get((u, v), 0)
        return Fraction(c, self._den)


# ---------------------------------------------------------------------------
# The shape of a quotient element
# ---------------------------------------------------------------------------

class _QuotientElement(_Coded):
    """a X + b Y plus tables of bracket coefficients, cut at a total degree.

    A subclass declares its tables in the ``_CODEC`` it reads and writes
    JSON, CSV and text with, each a ``_Table`` with a slot, a series type
    and an offset.  The slot is a public read-only attribute holding the
    table as a series, which callers read directly.  A table key of degree
    d stands for a bracket of degree d + offset, so the table is cut at
    ``truncation - offset``; below the offset it is cut at -1, where every
    coefficient is beyond the truncation.  A table given as a dict or as
    a series at another truncation is read as a polynomial.  Sums truncate
    at the smaller bound; the key for ``==`` is the truncation, X, Y and
    the tables.
    """

    __slots__ = ("truncation", "a", "b")

    def __init__(self, truncation: int, a=0, b=0, *tables):
        truncation = parse_int(truncation)
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        for spec, t in zip(self._CODEC.tables, tables):
            n = max(truncation - spec.offset, -1)
            if not isinstance(t, spec.series):
                t = spec.series(max(n, 0), t)
            object.__setattr__(self, spec.slot, t.padded(n))

    def _tables(self) -> list:
        """The tables, one cut at -1 read as zero at 0 so that sums and
        multiples of it build; the constructor cuts it at -1 again."""
        tables = [getattr(self, spec.slot) for spec in self._CODEC.tables]
        return [t.padded(max(t.truncation, 0)) for t in tables]

    def _codec_parts(self) -> tuple:
        return self.truncation, (self.a, self.b), self._tables()

    def _key(self) -> tuple:
        return self.truncation, self.a, self.b, self._tables()

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
