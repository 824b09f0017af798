"""Reference lenses: the closed forms for the measure of the intersection of
two balls at d = 2 and 3, and, in exact rational arithmetic, the d=3 lens
and Lambda_3 over their powers of pi.

functional._lens replaced the two closed forms with one cap formula for
every dimension; the tests keep them as an oracle, point by point.
"""

import math
from fractions import Fraction


def lens_area_2d(r1, r2, s):
    # area of the intersection of two disks with center distance s
    if s >= r1 + r2:
        return 0.0
    if s <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2
    d1 = (s * s + r1 * r1 - r2 * r2) / (2 * s)
    d2 = s - d1
    a1 = r1 * r1 * math.acos(max(-1.0, min(1.0, d1 / r1)))
    a2 = r2 * r2 * math.acos(max(-1.0, min(1.0, d2 / r2)))
    t1 = d1 * math.sqrt(max(0.0, r1 * r1 - d1 * d1))
    t2 = d2 * math.sqrt(max(0.0, r2 * r2 - d2 * d2))
    return a1 + a2 - t1 - t2


def lens_volume_3d(r1, r2, s):
    # volume of the intersection of two balls with center distance s
    if s >= r1 + r2:
        return 0.0
    if s <= abs(r1 - r2):
        return 4.0 / 3.0 * math.pi * min(r1, r2) ** 3
    rrd = r1 + r2 - s
    return (
        math.pi
        * rrd
        * rrd
        * (s * s + 2 * s * r2 - 3 * r2 * r2 + 2 * s * r1 + 6 * r1 * r2 - 3 * r1 * r1)
        / (12 * s)
    )


def lens_volume_3d_over_pi(r1, r2, s):
    """lens_volume_3d / pi for r1 - r2 < s < r1 + r2, exactly in the floats."""
    r1, r2, s = Fraction(r1), Fraction(r2), Fraction(s)
    rrd = r1 + r2 - s
    return rrd * rrd * (s * s + 2 * s * (r1 + r2) + 6 * r1 * r2 - 3 * r1 * r1 - 3 * r2 * r2) / (12 * s)


def _times(p, q):
    # product of two polynomials, coefficients from the constant term up
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def lambda_3_over_4pi2(r1, r2, r3):
    """Lambda_3 / (4 pi^2) of balls with radii r1 >= r2 >= r3, exactly in
    the float radii.

    Lambda_3 = 4 pi integral_0^r3 s^2 lens(r1, r2, s) ds.  Up to the kink
    k = r1 - r2 the lens is the ball of radius r2, and past it s^2 lens is
    pi s (r1 + r2 - s)^2 (s^2 + 2 s (r1 + r2) + 6 r1 r2 - 3 r1^2 - 3 r2^2) / 12,
    a polynomial of degree 5, so the integral is pi times a rational number.
    """
    r1, r2, r3 = (Fraction(r) for r in (r1, r2, r3))
    k = min(r1 - r2, r3)
    total = Fraction(4, 9) * r2**3 * k**3
    if k < r3:
        rrd = [r1 + r2, Fraction(-1)]
        poly = _times(
            _times([Fraction(0), Fraction(1, 12)], _times(rrd, rrd)),
            [6 * r1 * r2 - 3 * r1 * r1 - 3 * r2 * r2, 2 * (r1 + r2), Fraction(1)],
        )

        def antiderivative(x):
            return sum(c * x ** (n + 1) / (n + 1) for n, c in enumerate(poly))

        total += antiderivative(r3) - antiderivative(k)
    return total
