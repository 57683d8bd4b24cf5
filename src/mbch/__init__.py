"""Exact Baker-Campbell-Hausdorff computations on two generators.

The package computes log(e^X e^Y) in the free Lie algebra over the
rationals by a recursion and from its word series, read into the Lyndon
basis two ways, evaluates the closed formula for its image in the free
metabelian Lie algebra, solves the metabelian analogues of the
Zassenhaus product and of a commutator equation, and runs the same
recursion one quotient deeper.  All arithmetic is exact.
"""

from .series import (
    BiSeries,
    InexactDivision,
    bernoulli,
    format_rational,
    parse_rational,
)
from .assoc import (
    NCSeries,
    bch_log_oracle,
    nc_exp,
    nc_log,
    zassenhaus_oracle,
)
from .freelie import (
    Derivation,
    LieSeries,
    bracket,
    ideal_membership,
    long_commutator,
    lyndon_coords_of_assoc,
    lyndon_words,
    right_normed,
    standard_bracketing,
    to_assoc,
    to_lyndon_coords,
)
from .bch import (
    bch_dynkin,
    bch_recursive,
    bch_recursive_steps,
    hausdorff_h1,
)
from .metabelian import (
    MetabelianElement,
    goldberg_c,
    h_series,
    hausdorff_closed,
    kv_solve,
    kv_verify,
    project,
    zassenhaus_closed,
)
from .tilde import (
    TildeElement,
    expand_to_free,
    hausdorff_tilde,
    tilde_act,
    tilde_dy,
)
from .verify import run_suite

__version__ = "0.1.0"


def __getattr__(name):
    # ``mbch.cli`` is imported on first use, so ``python -m mbch.cli``
    # does not find it already in ``sys.modules`` and warn.
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BiSeries",
    "InexactDivision",
    "bernoulli",
    "format_rational",
    "parse_rational",
    "NCSeries",
    "bch_log_oracle",
    "nc_exp",
    "nc_log",
    "zassenhaus_oracle",
    "Derivation",
    "LieSeries",
    "bracket",
    "ideal_membership",
    "long_commutator",
    "lyndon_coords_of_assoc",
    "lyndon_words",
    "right_normed",
    "standard_bracketing",
    "to_assoc",
    "to_lyndon_coords",
    "bch_dynkin",
    "bch_recursive",
    "bch_recursive_steps",
    "hausdorff_h1",
    "MetabelianElement",
    "goldberg_c",
    "h_series",
    "hausdorff_closed",
    "kv_solve",
    "kv_verify",
    "project",
    "zassenhaus_closed",
    "TildeElement",
    "expand_to_free",
    "hausdorff_tilde",
    "tilde_act",
    "tilde_dy",
    "run_suite",
    "main",
]
