"""Exact Baker-Campbell-Hausdorff computations on two generators.

The package computes log(e^X e^Y) in the free Lie algebra over the
rationals by a recursion and from its word series, read into the Lyndon
basis two ways, evaluates the closed formula for its image in the free
metabelian Lie algebra, solves the metabelian analogues of the
Zassenhaus product and of a commutator equation, and runs the same
recursion one quotient deeper.  All arithmetic is exact.
"""

from . import series, assoc, freelie, bch, metabelian, tilde, verify
from .series import *
from .assoc import *
from .freelie import *
from .bch import *
from .metabelian import *
from .tilde import *
from .verify import *

__version__ = "0.1.0"

# Each module's ``__all__`` is the one list of its public names.
__all__ = [
    *series.__all__, *assoc.__all__, *freelie.__all__, *bch.__all__,
    *metabelian.__all__, *tilde.__all__, *verify.__all__, "main",
]


def __getattr__(name):
    # ``mbch.cli`` is imported on first use, so ``python -m mbch.cli``
    # does not find it already in ``sys.modules`` and warn.
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
