"""Cross-check suites wiring the independent computation paths together.

A suite is a list of rows ``(name, check)``; ``check()`` compares two
independent routes and returns ``(passed, detail)``, a failed detail
naming the first term that differs.  ``_run`` runs the rows in order
under one guard: a row that raises an ``Exception`` fails with the
detail ``raised <Type>: <message>`` and the later rows still run, while
``MemoryError`` and ``KeyboardInterrupt`` propagate.  A value that
several rows read is computed on first use, once per suite run.  Each
``check_<suite>(degree)`` returns the ``(name, passed, detail)`` triples
that the CLI ``verify`` subcommand renders, so a user can re-certify the
numerics from the command line.
"""

from __future__ import annotations

import functools
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


def _run(rows) -> list[Check]:
    """Run each row's check in order; a row that raises fails, and the
    rows after it still run."""
    out = []
    for name, check in rows:
        try:
            passed, detail = check()
        except MemoryError:
            raise
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append((name, bool(passed), "" if passed else detail))
    return out


def _terms(x) -> dict:
    """The terms of a series, or of a metabelian element with X and Y."""
    if isinstance(x, MetabelianElement):
        return {"X": x.a, "Y": x.b, **dict(x.table.items())}
    return dict(x.items())


def _same(left, right) -> tuple[bool, str]:
    """An equality check whose failure names the first term that differs,
    a word or a (k,l) slot in order of degree, and its two values."""
    if left == right:
        return True, ""
    a, b = _terms(left), _terms(right)
    differ = [k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)]
    if not differ:
        return False, f"truncation {left.truncation} != {right.truncation}"
    key = min(differ, key=lambda k: (0, len(k), k) if isinstance(k, str) else (1, sum(k), k))
    slot = key if isinstance(key, str) else "({},{})".format(*key)
    values = [format_rational(t.get(key, Fraction(0))) for t in (a, b)]
    return False, f"differs at {slot}: {values[0]} != {values[1]}"


def _first_differing(cases) -> tuple[bool, str]:
    """``_same`` over (label, left, right) cases: the first case that
    differs fails the check, its detail prefixed by the label."""
    for label, left, right in cases:
        passed, detail = _same(left, right)
        if not passed:
            return False, f"{label}: {detail}"
    return True, ""


def check_bch(degree: int) -> list[Check]:
    """Triple agreement, antisymmetry and grading of log(e^X e^Y): the
    m-th step of the recursion has degree m in X."""
    rec = functools.cache(lambda: bch_recursive(degree))
    oracle = functools.cache(lambda: bch_log_oracle(degree))

    def homogeneous():
        wrong = (
            f"step {m}: {w} has degree {w.count('X')} in X"
            for m, h in enumerate(bch_recursive_steps(degree))
            for w, _ in h.items()
            if w.count("X") != m
        )
        detail = next(wrong, "")
        return not detail, detail

    # "tuple sum" names Dynkin's route, which brackets ``oracle``.
    return _run([
        (f"recursion equals tuple sum through degree {degree}",
         lambda: _same(rec(), bch_dynkin(degree))),
        (f"recursion matches word-level log through degree {degree}",
         lambda: _same(to_assoc(rec()), oracle())),
        ("substituting (-Y,-X) negates the series",
         lambda: _same(oracle().subst_negswap(), -oracle())),
        ("degree components are homogeneous", homogeneous),
    ])


def check_metabelian(degree: int) -> list[Check]:
    """The closed formula against both oracles and its symmetries, and
    ``project`` against the mask it reads and the basis it writes."""
    n = max(degree, 3)
    cap = min(degree, 8)
    h = functools.cache(lambda: h_series(degree))
    hh = functools.cache(lambda: h().truncate(n - 2))
    c = functools.cache(lambda: goldberg_c(n))

    def words():
        oracle = bch_log_oracle(n)
        return BiSeries(n, {
            (r, s): oracle.coefficient("X" * r + "Y" * s)
            for r in range(1, n)
            for s in range(1, n - r + 1)
        })

    # Each chain projects to its own unit B(k,l), so the chains of one
    # degree are independent.
    units = (
        (f"B({k},{d - 2 - k})", project(long_commutator("X" * k + "Y" * (d - 2 - k) + "XY", d)),
         MetabelianElement(d, 0, 0, {(k, d - 2 - k): 1}))
        for d in range(2, cap + 1)
        for k in range(d - 1)
    )
    return _run([
        (f"projected recursion equals closed formula at degree {degree}",
         lambda: _same(project(bch_recursive(degree)), hausdorff_closed(degree))),
        ("h(x,y) = h(-y,-x)", lambda: _same(h().substitute(x=(0, -1), y=(-1, 0)), h())),
        (f"c_rs matches word coefficients through degree {n}", lambda: _same(c(), words())),
        ("c_{k+1,l+1} = (-1)^l h_kl", lambda: _same(
            c(), BiSeries(n, {(k + 1, l + 1): (-1) ** l * v for (k, l), v in hh().items()}))),
        ("c(x,y) = x y h(x,-y)", lambda: _same(c(), hh().substitute(y=(0, -1)).shift(1, 1))),
        (f"projection kills the ideal through degree {cap}", lambda: _projection_kills_ideal(cap)),
        (f"basis chains independent through degree {cap}", lambda: _first_differing(units)),
    ])


def _projection_kills_ideal(cap: int) -> tuple[bool, str]:
    """In each degree d the Lyndon words outside L'' must be the d - 1
    words X^kY^l, as many as dim (L/L'')_d, so the flagged words are a
    basis of L''_d; ``project`` must send each of them to zero."""
    flagged = []
    for d in range(2, cap + 1):
        words = lyndon_words(d)
        unflagged = [w for w in words if not ideal_membership(LieSeries(d, {w: 1}), "metabelian")]
        if unflagged != ["X" * k + "Y" * (d - k) for k in range(d - 1, 0, -1)]:
            return False, f"degree {d}: {len(unflagged)} words at level 0, expected {d - 1}"
        flagged += [w for w in words if w not in unflagged]
    return _first_differing(
        (w, project(LieSeries(len(w), {w: 1})), MetabelianElement.zero(len(w))) for w in flagged
    )


def check_zassenhaus(degree: int) -> list[Check]:
    """The closed correction terms against word-level stripping."""
    z = functools.cache(lambda: zassenhaus_closed(degree))

    def log_residual():
        residual = nc_log(_zassenhaus_residual(degree))
        return _same(project(LieSeries(degree, lyndon_coords_of_assoc(residual))), z())

    return _run([
        (f"per-degree terms match stripping through degree {degree}",
         lambda: _first_differing(
             (f"degree {d}", project(c_d).degree_part(d), z().degree_part(d))
             for d, c_d in enumerate(zassenhaus_oracle(degree), start=2)
         )),
        (f"sum equals projected log residual through degree {degree}", log_residual),
    ])


def check_kv(degree: int) -> list[Check]:
    """The commutator-equation solver and its solution family."""
    f = functools.cache(lambda: kv_solve(degree))

    def equation():
        fb = f().table
        lhs = fb.shift(1, 0) - fb.substitute(x=(0, -1), y=(-1, 0)).shift(0, 1)
        return _same(lhs, h_series(degree - 1) - Fraction(1, 2))

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

    return _run([
        ("particular solution satisfies the equation", lambda: _same(*_kv_sides(f(), degree))),
        ("constant coefficient of f is 1/12",
         lambda: _same(f().table.truncate(0), BiSeries.constant(0, Fraction(1, 12)))),
        ("x f(x,y) - y f(-y,-x) = h - 1/2", equation),
        ("random (a, g) solutions satisfy the equation", lambda: _first_differing(draws())),
    ])


def check_deeper(degree: int) -> list[Check]:
    """Long-commutator calculus against the free Lie algebra."""
    cap = min(degree, 6)
    work = cap + 2
    ht = functools.cache(lambda: expand_to_free(hausdorff_tilde(degree)))
    hr = functools.cache(lambda: bch_recursive(degree))

    def chains(left, right):
        """(label, left side, right side) for each chain {m,n} through the
        cap: ``left`` acts in the quotient, ``right`` in the free algebra."""
        for m in range(cap - 1):
            for n in range(cap - 1 - m):
                e = TildeElement(work, linear={(m, n): Fraction(1)})
                yield f"{{{m},{n}}}", expand_to_free(left(e)), right(expand_to_free(e))

    def in_ideal():
        deviation = ht() - hr()
        if ideal_membership(deviation, "deeper"):
            return True, ""
        terms = deviation.term_dict()
        outside = (w for w in terms if not ideal_membership(LieSeries(degree, {w: 1}), "deeper"))
        w = min(outside, key=lambda w: (len(w), w))
        return False, f"outside the ideal at {w}: {format_rational(terms[w])}"

    return _run([
        (f"letter action exact through degree {cap}",
         lambda: _first_differing(chains(
             functools.partial(tilde_act, "Y"),
             functools.partial(bracket, LieSeries.generator("Y", work)),
         ))),
        (f"derivation formulas exact through degree {cap}",
         lambda: _first_differing(chains(tilde_dy, Derivation(None, hausdorff_h1(work), work)))),
        ("matches the free series through degree 6",
         lambda: _same(ht().truncate(cap), hr().truncate(cap))),
        (f"deviation lies in the ideal through degree {degree}", in_ideal),
        (f"projects onto the closed formula at degree {degree}",
         lambda: _same(project(ht()), hausdorff_closed(degree))),
    ])


SUITES = {
    "bch": check_bch,
    "metabelian": check_metabelian,
    "zassenhaus": check_zassenhaus,
    "kv": check_kv,
    "deeper": check_deeper,
}


def run_suite(suite: str, degree: int) -> list[Check]:
    """Run one suite, or all of them with suite-prefixed check names."""
    names = list(SUITES) if suite == "all" else [suite]
    prefix = "{}: " if suite == "all" else ""
    return [(prefix.format(s) + n, p, d) for s in names for n, p, d in SUITES[s](degree)]
