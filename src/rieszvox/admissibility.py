"""Triangle-type admissibility margins for radius and set triples.

The margin of a radius triple is min over the three pairings of
(r_i + r_j - r_k) / max(r); it is scale and permutation invariant, at most 1,
with equality only for equal radii.  A triple is tau-admissible when
margin >= tau.
"""

from dataclasses import dataclass

import numpy as np

from .grid import SetTriple, check_integer, check_triple, float_or_nan


@dataclass(frozen=True)
class AdmissibilityReport:
    margin: float
    strict: bool
    min_over_max: float  # min r / max r, the ball-ratio form of the condition

    def tau_satisfied(self, tau):
        return self.margin >= tau


def radius_margin(r):
    """Admissibility report for a triple of finite positive radii."""
    r1, r2, r3 = check_triple(r, "radii")
    top = max(r1, r2, r3)
    margin = min(
        (r1 + r2 - r3) / top,
        (r1 + r3 - r2) / top,
        (r2 + r3 - r1) / top,
    )
    return AdmissibilityReport(
        margin=margin, strict=margin > 0, min_over_max=min(r1, r2, r3) / top
    )


def measure_margin(gamma, dim):
    """radius_margin applied to the dim-th roots of a triple of finite
    positive measures; dim is an integer >= 1."""
    dim = check_integer(dim, "dim", low=1)
    return radius_margin([x ** (1.0 / dim) for x in check_triple(gamma, "gamma")])


def set_triple_margin(t):
    """Admissibility of a SetTriple via the dim-th roots of the measures."""
    t = SetTriple(t)
    return measure_margin(t.measures, t.dim)


def slice_margin_profile(r, t):
    """Admissibility of the slice-radius triple (r_j * (1 - t_j^2)^(1/2)).

    r is a triple of finite positive radii and t the triple of slice
    heights in (-1, 1); callers sampling slices keep sum(r_j * t_j) = 0,
    which this function does not enforce.
    """
    rv = np.asarray(check_triple(r, "radii"))
    tv = np.vectorize(float_or_nan, otypes=[float])(t)
    if tv.shape != (3,) or not np.all(np.abs(tv) < 1.0):
        raise ValueError(f"slice parameters must be three numbers with |t| < 1, got {t}")
    return radius_margin(rv * np.sqrt(1.0 - tv * tv))
