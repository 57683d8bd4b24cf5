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
from .assoc import _zassenhaus_residual, bch_log_oracle, nc_log, zassenhaus_oracle
from .freelie import (
    Derivation,
    LieSeries,
    bracket,
    ideal_membership,
    long_commutator,
    lyndon_coords_of_assoc,
    lyndon_words,
    to_assoc,
)
from .bch import bch_dynkin, bch_recursive, bch_recursive_steps, hausdorff_h1
from .metabelian import (
    MetabelianElement,
    _kv_sides,
    goldberg_c,
    h_series,
    hausdorff_closed,
    kv_solve,
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
    return (name, bool(passed), "" if passed else detail)


def _terms(x) -> dict:
    """The terms of a series, or of a metabelian element with X and Y."""
    if isinstance(x, MetabelianElement):
        return {"X": x.a, "Y": x.b, **dict(x.table.items())}
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


def _first_differing(name: str, cases) -> Check:
    """``_same`` over (label, left, right) cases: the first case that
    differs fails the check, its detail prefixed by the label."""
    for label, left, right in cases:
        _, passed, detail = _same(name, left, right)
        if not passed:
            return _check(name, False, f"{label}: {detail}")
    return _check(name, True)


def check_bch(degree: int) -> list[Check]:
    """Triple agreement, antisymmetry and grading of log(e^X e^Y): the
    m-th step of the recursion has degree m in X."""
    rec = bch_recursive(degree)
    oracle = bch_log_oracle(degree)
    wrong = (
        f"step {m}: {w} has degree {w.count('X')} in X"
        for m, h in enumerate(bch_recursive_steps(degree))
        for w, _ in h.items()
        if w.count("X") != m
    )
    detail = next(wrong, "")
    # "tuple sum" names Dynkin's route, which brackets ``oracle``.
    return [
        _same(f"recursion equals tuple sum through degree {degree}", rec, bch_dynkin(degree)),
        _same(f"recursion matches word-level log through degree {degree}", to_assoc(rec), oracle),
        _same("substituting (-Y,-X) negates the series", oracle.subst_negswap(), -oracle),
        _check("degree components are homogeneous", not detail, detail),
    ]


def check_metabelian(degree: int) -> list[Check]:
    """The closed formula against both oracles and its symmetries, and
    ``project`` against the mask it reads and the basis it writes."""
    out = []
    out.append(
        _same(
            f"projected recursion equals closed formula at degree {degree}",
            project(bch_recursive(degree)),
            hausdorff_closed(degree),
        )
    )
    h = h_series(degree)
    out.append(_same("h(x,y) = h(-y,-x)", h.substitute(x=(0, -1), y=(-1, 0)), h))
    n = max(degree, 3)
    c = goldberg_c(n)
    oracle = bch_log_oracle(n)
    words = BiSeries(n, {
        (r, s): oracle.coefficient("X" * r + "Y" * s)
        for r in range(1, n)
        for s in range(1, n - r + 1)
    })
    out.append(_same(f"c_rs matches word coefficients through degree {n}", c, words))
    hh = h.truncate(n - 2)
    signed = BiSeries(n, {(k + 1, l + 1): (-1) ** l * v for (k, l), v in hh.items()})
    out.append(_same("c_{k+1,l+1} = (-1)^l h_kl", c, signed))
    out.append(
        _same("c(x,y) = x y h(x,-y)", c, hh.substitute(y=(0, -1)).shift(1, 1))
    )
    cap = min(degree, 8)
    out.append(_projection_kills_ideal(cap))
    # Each chain projects to its own unit B(k,l), so the chains of one
    # degree are independent.
    units = (
        (f"B({k},{d - 2 - k})", project(long_commutator("X" * k + "Y" * (d - 2 - k) + "XY", d)),
         MetabelianElement(d, 0, 0, {(k, d - 2 - k): 1}))
        for d in range(2, cap + 1)
        for k in range(d - 1)
    )
    out.append(_first_differing(f"basis chains independent through degree {cap}", units))
    return out


def _projection_kills_ideal(cap: int) -> Check:
    """In each degree d the Lyndon words outside L'' must be the d - 1
    words X^kY^l, as many as dim (L/L'')_d, so the flagged words are a
    basis of L''_d; ``project`` must send each of them to zero."""
    name = f"projection kills the ideal through degree {cap}"
    flagged = []
    for d in range(2, cap + 1):
        words = lyndon_words(d)
        unflagged = [w for w in words if not ideal_membership(LieSeries(d, {w: 1}), "metabelian")]
        if unflagged != ["X" * k + "Y" * (d - k) for k in range(d - 1, 0, -1)]:
            detail = f"degree {d}: {len(unflagged)} words at level 0, expected {d - 1}"
            return _check(name, False, detail)
        flagged += [w for w in words if w not in unflagged]
    return _first_differing(
        name,
        ((w, project(LieSeries(len(w), {w: 1})), MetabelianElement.zero(len(w))) for w in flagged),
    )


def check_zassenhaus(degree: int) -> list[Check]:
    """The closed correction terms against word-level stripping."""
    out = []
    z = zassenhaus_closed(degree)
    out.append(
        _first_differing(
            f"per-degree terms match stripping through degree {degree}",
            (
                (f"degree {d}", project(c_d).degree_part(d), z.degree_part(d))
                for d, c_d in enumerate(zassenhaus_oracle(degree), start=2)
            ),
        )
    )
    residual = nc_log(_zassenhaus_residual(degree))
    lie = LieSeries(degree, lyndon_coords_of_assoc(residual))
    out.append(
        _same(
            f"sum equals projected log residual through degree {degree}",
            project(lie),
            z,
        )
    )
    return out


def check_kv(degree: int) -> list[Check]:
    """The commutator-equation solver and its solution family."""
    f = kv_solve(degree)
    fb = f.table
    lhs = fb.shift(1, 0) - fb.substitute(x=(0, -1), y=(-1, 0)).shift(0, 1)
    rhs = h_series(degree - 1) - Fraction(1, 2)
    one_twelfth = BiSeries.constant(0, Fraction(1, 12))
    out = [
        _same("particular solution satisfies the equation", *_kv_sides(f, degree)),
        _same("constant coefficient of f is 1/12", fb.truncate(0), one_twelfth),
        _same("x f(x,y) - y f(-y,-x) = h - 1/2", lhs, rhs),
    ]

    def draws():
        rng = random.Random(409)
        gcap = max(degree - 3, 0)
        for draw in range(1, 6):
            coeffs = {}
            for i in range(gcap + 1):
                for j in range(i + 1, gcap - i + 1):
                    v = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    if v:
                        coeffs[(i, j)] = v
                        coeffs[(j, i)] = -((-1) ** (i + j)) * v
            g = BiSeries(gcap, coeffs)
            a = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
            yield f"draw {draw}", *_kv_sides(kv_solve(degree, a, g), degree)

    out.append(_first_differing("random (a, g) solutions satisfy the equation", draws()))
    return out


def check_deeper(degree: int) -> list[Check]:
    """Long-commutator calculus against the free Lie algebra."""
    out = []
    cap = min(degree, 6)
    work = cap + 2

    def chains(left, right):
        """(label, left side, right side) for each chain {m,n} through the
        cap: ``left`` acts in the quotient, ``right`` in the free algebra."""
        for m in range(cap - 1):
            for n in range(cap - 1 - m):
                e = TildeElement(work, linear={(m, n): Fraction(1)})
                yield f"{{{m},{n}}}", expand_to_free(left(e)), right(expand_to_free(e))

    y_gen = LieSeries.generator("Y", work)
    out.append(
        _first_differing(
            f"letter action exact through degree {cap}",
            chains(lambda e: tilde_act("Y", e), lambda f: bracket(y_gen, f)),
        )
    )
    d = Derivation(None, hausdorff_h1(work), work)
    out.append(
        _first_differing(
            f"derivation formulas exact through degree {cap}",
            chains(tilde_dy, d),
        )
    )
    ht = expand_to_free(hausdorff_tilde(degree))
    hr = bch_recursive(degree)
    out.append(
        _same("matches the free series through degree 6", ht.truncate(cap), hr.truncate(cap))
    )
    deviation = ht - hr
    name = f"deviation lies in the ideal through degree {degree}"
    if ideal_membership(deviation, "deeper"):
        out.append(_check(name, True))
    else:
        terms = deviation.term_dict()
        outside = (w for w in terms if not ideal_membership(LieSeries(degree, {w: 1}), "deeper"))
        w = min(outside, key=lambda w: (len(w), w))
        out.append(_check(name, False, f"outside the ideal at {w}: {format_rational(terms[w])}"))
    out.append(
        _same(
            f"projects onto the closed formula at degree {degree}",
            project(ht),
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
