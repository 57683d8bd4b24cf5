"""The storage rule of every series, checked from outside.

A series holds one positive denominator ``_den`` and a dict ``_num`` of
nonzero integer numerators with no factor common to the denominator and
all of them, so that equal series store equal integers.
"""

from math import gcd

from mbch.series import TruncatedSeries, _QuotientElement


def assert_canonical(value) -> None:
    """Every series of ``value``, a series or a quotient element, keeps
    the storage rule."""
    tables = value._tables() if isinstance(value, _QuotientElement) else [value]
    for s in tables:
        assert isinstance(s, TruncatedSeries)
        assert type(s._den) is int and s._den > 0, s._den
        assert all(type(c) is int and c for c in s._num.values()), s._num
        assert gcd(s._den, *s._num.values()) == 1, (s._den, s._num)
