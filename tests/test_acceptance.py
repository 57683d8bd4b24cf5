"""Acceptance suite: one test per criterion, one printed line per result.

Each test prints ``acceptance NN PASS/FAIL <label>`` through the capture
so the lines are visible in a normal pytest run, and asserts both the
mathematical statement and a wall-clock budget.
"""

import random
import time
from fractions import Fraction as F

import pytest

from mbch.series import BiSeries, bernoulli
from mbch.assoc import NCSeries, bch_log_oracle, nc_exp, nc_log, zassenhaus_oracle
from mbch.freelie import (
    Derivation,
    LieSeries,
    bracket,
    ideal_membership,
    long_commutator,
    lyndon_coords_of_assoc,
    lyndon_words,
    to_assoc,
)
from mbch.bch import bch_dynkin, bch_recursive, hausdorff_h1
from mbch.metabelian import (
    goldberg_c,
    h_series,
    hausdorff_closed,
    kv_solve,
    kv_verify,
    project,
    zassenhaus_closed,
)
from mbch.tilde import TildeElement, expand_to_free, hausdorff_tilde, tilde_act, tilde_dy


@pytest.fixture
def criterion(capfd):
    """Run a criterion body, print its pass/fail line, enforce its budget."""

    def _run(number, label, budget_s, body):
        t0 = time.perf_counter()
        ok = False
        try:
            body()
            elapsed = time.perf_counter() - t0
            assert elapsed < budget_s, (
                f"runtime {elapsed:.1f}s exceeds the {budget_s}s budget"
            )
            ok = True
        finally:
            elapsed = time.perf_counter() - t0
            status = "PASS" if ok else "FAIL"
            with capfd.disabled():
                print(f"acceptance {number:2d} {status} {label} ({elapsed:.1f}s)")

    return _run


def test_01_triple_agreement_degree_10(criterion):
    def body():
        rec = to_assoc(bch_recursive(10))
        dyn = to_assoc(bch_dynkin(10))
        oracle = bch_log_oracle(10)
        assert rec == dyn
        assert rec == oracle

    criterion(1, "three routes to log(e^X e^Y) agree word-by-word at degree 10",
              60, body)


def test_02_degree_4_display(criterion):
    def body():
        expected = (
            LieSeries.generator("X", 4)
            + LieSeries.generator("Y", 4)
            + F(1, 2) * long_commutator("XY", 4)
            + F(1, 12) * (long_commutator("XXY", 4) - long_commutator("YXY", 4))
            - F(1, 24) * long_commutator("XYXY", 4)
        )
        assert bch_recursive(4) == expected

    criterion(2, "degree-4 series is X+Y+[XY]/2+([X^2Y]-[YXY])/12-[XYXY]/24",
              1, body)


def test_03_closed_formula_degree_12(criterion):
    def body():
        projected = project(bch_recursive(12))
        closed = hausdorff_closed(12)
        assert projected == closed
        pairs = [(k, l) for k in range(11) for l in range(11 - k)]
        assert len(pairs) == 66
        for k, l in pairs:
            assert projected.table.coefficient(k, l) == closed.table.coefficient(k, l)

    criterion(3, "projected recursion equals the closed formula, all 66 table slots",
              60, body)


def test_04_h_golden_values(criterion):
    def body():
        expected = {
            (0, 0): F(1, 2),
            (1, 0): F(1, 12), (0, 1): F(-1, 12),
            (1, 1): F(-1, 24),
            (3, 0): F(-1, 720), (2, 1): F(-4, 720),
            (1, 2): F(4, 720), (0, 3): F(1, 720),
            (3, 1): F(1, 1440), (2, 2): F(4, 1440), (1, 3): F(1, 1440),
        }
        assert h_series(4) == BiSeries(4, expected)

    criterion(4, "h(x,y) through degree 4 matches the golden expansion", 1, body)


def test_05_goldberg_cross_checks(criterion):
    def body():
        c = goldberg_c(12)
        oracle = bch_log_oracle(12)
        for r in range(1, 12):
            for s in range(1, 13 - r):
                assert c.coefficient(r, s) == oracle.coefficient("X" * r + "Y" * s)
        h = h_series(10)
        for k in range(11):
            for l in range(11 - k):
                assert c.coefficient(k + 1, l + 1) == (-1) ** l * h.coefficient(k, l)

    criterion(5, "c_rs equals word coefficients (r+s<=12) and (-1)^l h_kl (k+l<=10)",
              60, body)


def test_06_h_symmetry_degree_20(criterion):
    def body():
        h = h_series(20)
        assert h.substitute(x=(0, -1), y=(-1, 0)) == h

    criterion(6, "h(x,y) = h(-y,-x) through degree 20", 5, body)


def test_07_zassenhaus(criterion):
    def body():
        closed = zassenhaus_closed(10)
        assert closed.degree_part(2) == -F(1, 2) * _table_atom(10, 0, 0)
        assert closed.degree_part(3) == (
            F(1, 3) * _table_atom(10, 0, 1) + F(1, 6) * _table_atom(10, 1, 0)
        )
        assert closed.degree_part(4) == (
            -F(1, 8) * _table_atom(10, 0, 2)
            - F(1, 8) * _table_atom(10, 1, 1)
            - F(1, 24) * _table_atom(10, 2, 0)
        )
        for d, factor in enumerate(zassenhaus_oracle(8), start=2):
            assert project(factor).degree_part(d) == (
                zassenhaus_closed(8).degree_part(d)
            )
        x = NCSeries.generator("X", 10)
        y = NCSeries.generator("Y", 10)
        residual = nc_log(nc_exp(-y) * nc_exp(-x) * nc_exp(x + y))
        lie = LieSeries(10, lyndon_coords_of_assoc(residual))
        assert project(lie) == closed

    criterion(7, "correction factors match stripping and the log residual", 120, body)


def _table_atom(truncation, k, l):
    from mbch.metabelian import MetabelianElement

    return MetabelianElement(truncation, table={(k, l): F(1)})


def test_08_commutator_equation(criterion):
    def body():
        solution = kv_solve(12, 0, 0)
        assert kv_verify(solution, 12)
        fb = kv_solve(14, 0, 0).table
        lhs = fb.shift(1, 0) - fb.substitute(x=(0, -1), y=(-1, 0)).shift(0, 1)
        rhs = h_series(13) - F(1, 2)
        assert lhs.agrees_with(rhs, 12)
        rng = random.Random(1728)
        for _ in range(20):
            a = F(rng.randint(-9, 9), rng.randint(1, 5))
            g = _random_antisymmetric(rng, 8)
            assert kv_verify(kv_solve(12, a, g), 12)

    criterion(8, "commutator-equation solutions verify, incl. 20 random (a,g)",
              60, body)


def _random_antisymmetric(rng, truncation):
    coeffs = {}
    for i in range(truncation + 1):
        for j in range(i + 1, truncation - i + 1):
            c = F(rng.randint(-6, 6), rng.randint(1, 4))
            if c:
                coeffs[(i, j)] = c
                coeffs[(j, i)] = -((-1) ** (i + j)) * c
    return BiSeries(truncation, coeffs)


def test_09_deeper_quotient(criterion):
    def body():
        small = expand_to_free(hausdorff_tilde(5))
        assert LieSeries(5, dict(small.items())) == bch_recursive(5)
        full = expand_to_free(hausdorff_tilde(7)) - bch_recursive(7)
        for d in (6, 7):
            assert ideal_membership(full.degree_part(d), "deeper")
        for m in range(5):
            for n in range(5 - m):
                e = TildeElement(8, linear={(m, n): F(1)})
                assert expand_to_free(tilde_act("Y", e)) == (
                    bracket(LieSeries.generator("Y", 8), expand_to_free(e))
                )
                lhs = expand_to_free(tilde_dy(e))
                rhs = Derivation(None, hausdorff_h1(8), 8)(expand_to_free(e))
                assert lhs == rhs

    criterion(9, "deeper-quotient recursion: exact to degree 5, deviation in ideal",
              120, body)


def test_10_series_identities_and_bernoulli(criterion):
    def body():
        x = BiSeries.monomial(1, 0, 13)
        y = BiSeries.monomial(0, 1, 13)
        log_x = BiSeries.named("log1p", 13)
        log_y = log_x.substitute(x=(0, 1))
        lhs_a = BiSeries.zero(12)
        lhs_b = BiSeries.zero(12)
        for m in range(1, 13):
            sign = F((-1) ** (m - 1), m)
            for r in range(1, m):
                lhs_a += sign * BiSeries.monomial(r, m - r, 12)
            if m <= 11:
                for r in range(1, m + 1):
                    lhs_b += sign * BiSeries.monomial(r, m + 1 - r, 12)
        rhs_a = (y * log_x - x * log_y).truncate(13).divide_exact(x - y)
        assert lhs_a == rhs_a.truncate(12)
        rhs_b = ((log_x - log_y).truncate(13).divide_exact(x - y)).shift(1, 1)
        assert lhs_b == rhs_b.truncate(12)
        quotient = BiSeries.monomial(1, 0, 13).divide_exact(
            BiSeries.named("expm1", 13)
        )
        for n in range(13):
            fact = 1
            for k in range(2, n + 1):
                fact *= k
            assert quotient.coefficient(n, 0) * fact == bernoulli(n)
        assert bernoulli(12) == F(-691, 2730)

    criterion(10, "alternating-sum identities hold; long division gives B_0..B_12",
              5, body)


def test_11_property_suites(criterion):
    def body():
        rng = random.Random(5040)
        cases = 210

        def random_biseries():
            coeffs = {}
            for _ in range(rng.randint(1, 6)):
                i, j = rng.randint(0, 4), rng.randint(0, 4)
                if i + j <= 6:
                    coeffs[(i, j)] = F(rng.randint(-4, 4), rng.randint(1, 3))
            return BiSeries(6, coeffs)

        one = BiSeries.one(6)
        for _ in range(cases):
            a, b, c = random_biseries(), random_biseries(), random_biseries()
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a * one == a

        def random_zero_constant_nc():
            coeffs = {}
            for _ in range(rng.randint(1, 5)):
                w = "".join(rng.choice("XY") for _ in range(rng.randint(1, 6)))
                coeffs[w] = F(rng.randint(-3, 3), rng.randint(1, 3))
            return NCSeries(6, coeffs)

        for _ in range(cases):
            a = random_zero_constant_nc()
            assert nc_log(nc_exp(a)) == a
            u = NCSeries.one(6) + a
            assert nc_exp(nc_log(u)) == u

        def random_lie(degree):
            e = LieSeries.zero(6)
            for _ in range(rng.randint(1, 3)):
                word = "".join(rng.choice("XY") for _ in range(degree - 2))
                scalar = F(rng.randint(-3, 3), rng.randint(1, 2))
                e = e + scalar * long_commutator(word + "XY", 6)
            return e

        for _ in range(cases):
            da = rng.randint(1, 2)
            db = rng.randint(1, 2)
            dc = rng.randint(1, 6 - da - db)
            a = random_lie(da) if da > 1 else LieSeries.generator(rng.choice("XY"), 6)
            b = random_lie(db) if db > 1 else LieSeries.generator(rng.choice("XY"), 6)
            c = random_lie(dc) if dc > 1 else LieSeries.generator(rng.choice("XY"), 6)
            jacobi = (
                bracket(bracket(a, b), c)
                + bracket(bracket(b, c), a)
                + bracket(bracket(c, a), b)
            )
            assert jacobi.is_zero()

        for d in range(1, 7):
            for w in lyndon_words(d):
                expansion = to_assoc(LieSeries(6, {w: F(1)}))
                assert expansion.coefficient(w) == 1
                assert all(word >= w for word, _ in expansion.terms())
        for _ in range(cases):
            e = random_lie(rng.randint(3, 6))
            rebuilt = LieSeries(6, lyndon_coords_of_assoc(to_assoc(e)))
            assert to_assoc(rebuilt) == to_assoc(e)

        for _ in range(cases):
            total = rng.randint(4, 6)
            cuts = sorted(rng.sample(range(1, total), 3))
            degrees = [
                cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], total - cuts[2],
            ]
            factors = [
                random_lie(d) if d > 1 else LieSeries.generator(rng.choice("XY"), 6)
                for d in degrees
            ]
            member = bracket(
                bracket(factors[0], factors[1]), bracket(factors[2], factors[3])
            )
            assert project(member).is_zero()

    criterion(11, "ring, exp/log, Jacobi, triangularity, projection properties "
                  "(210 random cases each)", 60, body)
