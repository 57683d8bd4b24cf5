"""A work guard that no host can blur: ``Fraction`` use in the kernels.

Every series holds integer numerators over one denominator, so the
kernels of the recursion, the tilde recursion, the word-level stripping
and the tree-to-word expansion do integer arithmetic; a ``Fraction`` is
built where a value leaves or a named coefficient is made.  Wall time on
one machine drifts between runs, but these counts do not.  Each call
runs from cleared caches with ``Fraction.__add__``, ``__sub__``,
``__mul__``, ``__truediv__`` and ``__new__`` counted; none of the four
calls reaches ``BiSeries.divide_exact``, which keeps rational long
division.  Each bound is about 1.5 times the count of the integer
kernels; the same calls with a ``Fraction`` per stored coefficient did
224, 1481, 0 and 93 operations and built 624, 3219, 1186 and 571
Fractions.
"""

from fractions import Fraction

import pytest

from mbch import assoc, bch, freelie, metabelian, series, tilde

_OPS = ("__add__", "__sub__", "__mul__", "__truediv__")


def _clear_caches() -> None:
    for module in (series, assoc, freelie, bch, metabelian, tilde):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.mark.parametrize("run, max_ops, max_built", [
    (lambda: bch.bch_recursive(10), 100, 200),
    (lambda: tilde.hausdorff_tilde(9), 250, 500),
    (lambda: assoc.zassenhaus_oracle(8), 10, 75),
    (lambda: freelie.to_assoc(bch.bch_recursive(8)), 65, 140),
], ids=["bch_recursive(10)", "hausdorff_tilde(9)", "zassenhaus_oracle(8)",
        "to_assoc(bch_recursive(8))"])
def test_kernels_do_integer_arithmetic(monkeypatch, run, max_ops, max_built):
    counts = dict.fromkeys((*_OPS, "__new__"), 0)

    def counted(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    _clear_caches()
    for name in counts:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    run()
    monkeypatch.undo()
    _clear_caches()
    assert sum(counts[op] for op in _OPS) <= max_ops, counts
    assert counts["__new__"] <= max_built, counts
