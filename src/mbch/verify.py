"""Cross-check suites wiring the independent computation paths together.

Each suite returns a list of (name, passed, detail) triples; the CLI
``verify`` subcommand renders them.  The checks mirror the library's
test suite at a configurable degree so a user can re-certify the
numerics from the command line.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .series import BiSeries, format_rational
from .assoc import NCSeries, bch_log_oracle, nc_exp, nc_log, zassenhaus_oracle
from .freelie import (
    Derivation,
    LieElement,
    bracket,
    ideal_membership,
    ideal_spanning_elements,
    long_commutator,
    lyndon_coords_of_assoc,
    span_rank,
    to_assoc,
)
from .bch import bch_dynkin, bch_recursive, bch_recursive_steps, hausdorff_h1
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
from .tilde import TildeElement, expand_to_free, hausdorff_tilde, tilde_act, tilde_dy

__all__ = [
    "check_bch",
    "check_metabelian",
    "check_zassenhaus",
    "check_kv",
    "check_deeper",
    "run_suite",
    "SUITES",
]

Check = tuple[str, bool, str]


def _check(name: str, passed: bool, detail: str = "") -> Check:
    return (name, bool(passed), "" if passed else detail or "mismatch")


def _terms(x) -> dict:
    """The terms of a series, or of a metabelian element with X and Y."""
    if isinstance(x, MetabelianElement):
        return {"X": x.a, "Y": x.b, **dict(x.terms())}
    return dict(x.items())


def _same(name: str, left, right) -> Check:
    """An equality check whose failure names the first term that differs,
    a word or a (k,l) slot in order of degree, and its two values."""
    if left == right:
        return _check(name, True)
    a, b = _terms(left), _terms(right)
    differ = [k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)]
    if not differ:
        return _check(name, False, f"truncation {left.truncation} != {right.truncation}")
    key = min(differ, key=lambda k: (0, len(k), k) if isinstance(k, str) else (1, sum(k), k))
    slot = key if isinstance(key, str) else "({},{})".format(*key)
    values = [format_rational(t.get(key, Fraction(0))) for t in (a, b)]
    return _check(name, False, f"differs at {slot}: {values[0]} != {values[1]}")


def check_bch(degree: int) -> list[Check]:
    """Triple agreement, antisymmetry and grading of log(e^X e^Y): the
    m-th step of the recursion has degree m in X."""
    out = []
    rec = bch_recursive(degree)
    dyn = bch_dynkin(degree)
    oracle = bch_log_oracle(degree)
    out.append(_same(f"recursion equals tuple sum through degree {degree}", rec, dyn))
    out.append(
        _same(
            f"recursion matches word-level log through degree {degree}",
            to_assoc(rec, degree),
            oracle,
        )
    )
    out.append(
        _same("substituting (-Y,-X) negates the series", oracle.subst_negswap(), -oracle)
    )
    graded = all(
        w.count("X") == m
        for m, h in enumerate(bch_recursive_steps(degree))
        for w, _ in h.items()
    )
    out.append(_check("degree components are homogeneous", graded))
    return out


def check_metabelian(degree: int) -> list[Check]:
    """The closed formula against both oracles and its symmetries."""
    out = []
    out.append(
        _same(
            f"projected recursion equals closed formula at degree {degree}",
            project(bch_recursive(degree), degree),
            hausdorff_closed(degree),
        )
    )
    h = h_series(degree)
    out.append(_same("h(x,y) = h(-y,-x)", h.substitute(x=(0, -1), y=(-1, 0)), h))
    n = max(degree, 3)
    c = goldberg_c(n)
    oracle = bch_log_oracle(n)
    ok = all(
        c.coefficient(r, s) == oracle.coefficient("X" * r + "Y" * s)
        for r in range(1, n)
        for s in range(1, n - r + 1)
    )
    out.append(_check(f"c_rs matches word coefficients through degree {n}", ok))
    hh = h_series(n - 2)
    ok = all(
        c.coefficient(k + 1, l + 1) == (-1) ** l * hh.coefficient(k, l)
        for k in range(n - 1)
        for l in range(n - 1 - k)
    )
    out.append(_check("c_{k+1,l+1} = (-1)^l h_kl", ok))
    out.append(
        _same("c(x,y) = x y h(x,-y)", c, h_series(n - 2).substitute(y=(0, -1)).shift(1, 1))
    )
    cap = min(degree, 8)
    ok = all(
        project(e, d).is_zero()
        for d in range(4, cap + 1)
        for e in ideal_spanning_elements("metabelian", d)
    )
    out.append(_check(f"projection kills the ideal through degree {cap}", ok))
    ok = all(
        span_rank(
            to_assoc(long_commutator("X" * k + "Y" * (d - 2 - k) + "XY"), d).word_dict()
            for k in range(d - 1)
        )
        == d - 1
        for d in range(2, cap + 1)
    )
    out.append(_check(f"basis chains independent through degree {cap}", ok))
    return out


def check_zassenhaus(degree: int) -> list[Check]:
    """The closed correction terms against word-level stripping."""
    out = []
    z = zassenhaus_closed(degree)
    ok = True
    for d, c_d in enumerate(zassenhaus_oracle(degree), start=2):
        if project(c_d, degree).degree_part(d) != z.degree_part(d):
            ok = False
            break
    out.append(
        _check(f"per-degree terms match stripping through degree {degree}", ok)
    )
    x = NCSeries.generator("X", degree)
    y = NCSeries.generator("Y", degree)
    residual = nc_log(nc_exp(-y) * nc_exp(-x) * nc_exp(x + y))
    lie = LieElement(lyndon_coords_of_assoc(residual))
    out.append(
        _same(
            f"sum equals projected log residual through degree {degree}",
            project(lie, degree),
            z,
        )
    )
    return out


def check_kv(degree: int) -> list[Check]:
    """The commutator-equation solver and its solution family."""
    out = []
    f = kv_solve(degree)
    out.append(_check("particular solution satisfies the equation", kv_verify(f, degree)))
    out.append(
        _check(
            "constant coefficient of f is 1/12",
            f.coefficient(0, 0) == Fraction(1, 12),
        )
    )
    fb = f.table_series()
    lhs = fb.shift(1, 0) - fb.substitute(x=(0, -1), y=(-1, 0)).shift(0, 1)
    rhs = h_series(degree - 1) - Fraction(1, 2)
    out.append(
        _check("x f(x,y) - y f(-y,-x) = h - 1/2", lhs.agrees_with(rhs, degree - 1))
    )
    rng = random.Random(409)
    ok = True
    for _ in range(5):
        gcap = max(degree - 3, 0)
        coeffs = {}
        for i in range(gcap + 1):
            for j in range(i + 1, gcap - i + 1):
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                if v:
                    coeffs[(i, j)] = v
                    coeffs[(j, i)] = -((-1) ** (i + j)) * v
        g = BiSeries(gcap, coeffs)
        a = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
        if not kv_verify(kv_solve(degree, a, g), degree):
            ok = False
            break
    out.append(_check("random (a, g) solutions satisfy the equation", ok))
    return out


def check_deeper(degree: int) -> list[Check]:
    """Long-commutator calculus against the free Lie algebra."""
    out = []
    cap = min(degree, 6)
    y_gen = LieElement.generator("Y")
    ok = True
    for m in range(cap - 1):
        for n in range(cap - 1 - m):
            e = TildeElement(cap + 2, linear={(m, n): Fraction(1)})
            lhs = expand_to_free(tilde_act("Y", e))
            rhs = bracket(y_gen, expand_to_free(e))
            if lhs != rhs:
                ok = False
    out.append(_check(f"letter action exact through degree {cap}", ok))
    work = cap + 2
    h1 = hausdorff_h1(work)
    ok = True
    for m in range(cap - 1):
        for n in range(cap - 1 - m):
            e = TildeElement(work, linear={(m, n): Fraction(1)})
            lhs = expand_to_free(tilde_dy(e, work))
            rhs = Derivation(None, h1, work)(expand_to_free(e))
            if lhs != rhs:
                ok = False
    out.append(_check(f"derivation formulas exact through degree {cap}", ok))
    ht = expand_to_free(hausdorff_tilde(degree))
    hr = LieElement(dict(bch_recursive(degree).items()))
    diff = (ht - hr).degree_components()
    ok = all(d > min(degree, 6) for d in diff)
    out.append(_check("matches the free series through degree 6", ok))
    ok = all(ideal_membership(c, "deeper") for c in diff.values())
    out.append(
        _check(f"deviation lies in the ideal through degree {degree}", ok)
    )
    out.append(
        _same(
            f"projects onto the closed formula at degree {degree}",
            project(ht, degree),
            hausdorff_closed(degree),
        )
    )
    return out


SUITES = {
    "bch": check_bch,
    "metabelian": check_metabelian,
    "zassenhaus": check_zassenhaus,
    "kv": check_kv,
    "deeper": check_deeper,
}


def run_suite(suite: str, degree: int) -> list[Check]:
    """Run one suite, or all of them with suite-prefixed check names."""
    if suite == "all":
        out = []
        for name, fn in SUITES.items():
            out.extend((f"{name}: {n}", p, d) for n, p, d in fn(degree))
        return out
    return SUITES[suite](degree)
