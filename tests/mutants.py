"""The mutant table: one wrong line each, and the ``verify`` row that kills it.

Each mutant replaces ``old`` by ``new`` in one file of ``src/mbch``; the
old text occurs there exactly once.  ``verify --suite <suite> --degree
<degree>`` on the mutated copy must exit 1 with a ``FAIL <row>`` line, so
a refactor that weakens a second route shows up as a surviving mutant
(mutation analysis: DeMillo, Lipton and Sayward, "Hints on test data
selection", Computer 11 (1978) 34).  Where ``detail`` is set, the FAIL
line of that row must also contain it.  A mutant that no row kills yet says
why in ``survives``; its test is a strict xfail, so the route that
kills it must also move it into the table proper.

``test_mutants.py`` runs the table.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    suite: str
    degree: int
    row: str
    survives: str = ""
    detail: str = ""


MUTANTS = [
    Mutant(
        "nc_log weight 1/4 for 1/3",
        "assoc.py",
        "Fraction((-1) ** (k + 1), k) for k in range(1, top + 1)",
        "Fraction((-1) ** (k + 1), 4 if k == 3 else k) for k in range(1, top + 1)",
        "bch", 9, "recursion matches word-level log through degree 9",
    ),
    Mutant(
        "_lyndon_bracket doubled on (X, XXY)",
        "freelie.py",
        "    return {u + v: 1}\n",
        '    return {u + v: 2 if (u, v) == ("X", "XXY") else 1}\n',
        "bch", 9, "recursion matches word-level log through degree 9",
    ),
    Mutant(
        "_ideal_level raises on one long factor",
        "freelie.py",
        "    if len(u) > 1 and len(v) > 1:\n",
        "    if len(u) > 1 or len(v) > 1:\n",
        "metabelian", 9, "projection kills the ideal through degree 8",
    ),
    Mutant(
        "stripping step's k = 2 exp weight negated",
        "assoc.py",
        "_power_sum(den, neg, n, _exp_weights(n // d))",
        "_power_sum(den, neg, n, [-w if k == 2 else w for k, w in enumerate(_exp_weights(n // d))])",
        "zassenhaus", 9, "per-degree terms match stripping through degree 9",
        detail="nonzero associative residual in degree 4",
    ),
    Mutant(
        "h plus 10^-9 x^5 y^5",
        "metabelian.py",
        "    return num.divide_exact(BiSeries.monomial(0, 1, m))\n",
        "    return num.divide_exact(BiSeries.monomial(0, 1, m))"
        " + BiSeries.monomial(5, 5, truncation, Fraction(1, 10**9))\n",
        "metabelian", 12, "projected recursion equals closed formula at degree 12",
    ),
    Mutant(
        "sign of D{0,0} flipped",
        "tilde.py",
        "        return -TildeElement(truncation, linear=_h1_tail(1, truncation))\n",
        "        return TildeElement(truncation, linear=_h1_tail(1, truncation))\n",
        "deeper", 9, "derivation formulas exact through degree 6",
    ),
    Mutant(
        "constant of f in kv_solve 7/78 for 1/12",
        "metabelian.py",
        "(even_h - Fraction(1, 2)).divide_exact(two_x)\n",
        "(even_h - Fraction(1, 2)).divide_exact(two_x) + Fraction(1, 156)\n",
        "kv", 9, "constant coefficient of f is 1/12",
    ),
    Mutant(
        "goldberg_c plus 10^-9 x^20 y^20",
        "metabelian.py",
        "    return quotient.divide_exact(unit).truncate(truncation)\n",
        "    return quotient.divide_exact(unit).truncate(truncation)"
        " + BiSeries.monomial(20, 20, truncation, Fraction(1, 10**9))\n",
        "metabelian", 12, "c_{k+1,l+1} = (-1)^l h_kl",
        survives="no verify row reaches degree 40 within its cap; "
        "a closed-form row at degree 64 would kill it",
    ),
]
