"""Tools for the Mordell curves y^2 = x^3 + a and their cubic twists.

The package answers three kinds of questions:

* arithmetic of the reduced curves over prime fields — point counts,
  Frobenius traces, 3-torsion (``curve_count``);
* which primes are admissible for building twist parameters m, and how
  often they occur (``admissible``);
* whether a given pair (a, m) certifies that the cubic twists by m^2 and
  m^4 have vanishing 3-Selmer group over Q(zeta_3), hence rank 0
  (``certify``, ``local_kummer``).

Everything is exact integer arithmetic; no floats touch a result.
"""

__version__ = "0.1.0"

from .admissible import (
    a_admissible,
    compute_s,
    empirical_density,
    enumerate_m,
    generate_Ma,
    generate_Qa,
    predicted_density,
)
from .certify import CertConclusion, certify, selmer_table_lookup
from .curve_count import fast_count, naive_count, torsion3_trivial
from .eisenstein import solve_norm_equation, split_in_K
from .local_kummer import KummerLocalType, PlaceOfK, classify_place, selmer_stability_report

__all__ = [
    "__version__",
    "a_admissible",
    "compute_s",
    "predicted_density",
    "generate_Qa",
    "generate_Ma",
    "enumerate_m",
    "empirical_density",
    "naive_count",
    "fast_count",
    "torsion3_trivial",
    "split_in_K",
    "solve_norm_equation",
    "classify_place",
    "selmer_stability_report",
    "KummerLocalType",
    "PlaceOfK",
    "certify",
    "selmer_table_lookup",
    "CertConclusion",
]
