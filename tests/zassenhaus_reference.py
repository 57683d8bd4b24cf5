"""Fraction-level reference for the word-level Zassenhaus stripping.

The tests compare ``mbch.assoc.zassenhaus_oracle``, which strips in
integers over one denominator, against the plain loop on ``NCSeries``:
r = e^(-Y) e^(-X) e^(X+Y), then for each degree d read C_d as the
degree-d part of r and replace r by exp(-C_d) r.
"""

from mbch.assoc import NCSeries, nc_exp
from mbch.freelie import LieSeries, lyndon_coords_of_assoc


def stripped_factors(truncation: int) -> list[LieSeries]:
    """C_2 ... C_N of e^(X+Y) = e^X e^Y prod e^(C_n), one Fraction series
    product per step."""
    n = truncation
    x = NCSeries.generator("X", n)
    y = NCSeries.generator("Y", n)
    r = nc_exp(-y) * nc_exp(-x) * nc_exp(x + y)
    out = []
    for d in range(2, n + 1):
        # r - 1 starts at degree d, so its degree-d part is that of log r
        part = r.degree_part(d)
        out.append(LieSeries(n, lyndon_coords_of_assoc(part)))
        r = nc_exp(-part) * r
    return out
