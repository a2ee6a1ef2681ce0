"""FAIL power of the sphere sampler: how many radii find a refuter on fields steeper than 1.

Every field here is the lift of a `CustomField` in d = 2 that declares the
bound 1 but is steeper by a factor c: away from a point, along a line,
across a wave, around a point. Rigid moves of the whole measure mostly
miss the first, third and fourth; the line is the case a translation
finds. None registers a descent ray, so the analytic candidate is absent
and only the sphere samples can refute. The count of
radii with a refuter is a property of the sampler and its rng draws, not of
the host; a sampler that finds fewer refuters fails here.
"""

import math

import numpy as np

from wasslab.base_space import CustomField
from wasslab.discrete_measure import validate_measure
from wasslab.viscosity import lift, viscosity_sphere_test

A = np.array([0.3, -0.2])
SLOPES = (1.05, 1.2, 2.0)
N_MEASURES = 40
RADII = (1.0, 0.5, 0.1)
# three rng draws per measure: with one, the draws alone move the total about
# as much as a change of sampler does
RNG_OFFSETS = (0, 1000, 2000)
# Refuting radii of the sampler whose third generator cut a geodesic toward a
# random target at arc length r, before the dilation took its place (out of
# 1,080 per family): radial 317, linear 655, wave 107, swirl 439.
BEFORE_DILATION = 1518


def _base(family, c, e):
    if family == "radial":
        fn = lambda x: -c * math.hypot(*(x - A))  # noqa: E731
    elif family == "linear":
        fn = lambda x: -c * float(x @ e)  # noqa: E731
    elif family == "wave":
        fn = lambda x: -c * math.sin(2.0 * float(x @ e)) / 2.0  # noqa: E731
    else:
        fn = lambda x: 0.7 * c * math.atan2(x[1] - A[1], x[0] - A[0])  # noqa: E731
    return CustomField(fn, dim=2)


def _cases():
    rng = np.random.default_rng(20261020)
    for k in range(N_MEASURES):
        n = 2 + k % 5
        w = rng.random(n) + 0.05
        omega = validate_measure(A + rng.normal(size=(n, 2)), w / w.sum())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        yield k, omega, np.array([math.cos(angle), math.sin(angle)])


def refuting_radii() -> dict[str, int]:
    """Radii with a refuter per family, over every slope and measure, budget 8."""
    counts = dict.fromkeys(("radial", "linear", "wave", "swirl"), 0)
    for k, omega, e in _cases():
        for family in counts:
            for c in SLOPES:
                U = lift(_base(family, c, e), 2.0)
                for offset in RNG_OFFSETS:
                    res = viscosity_sphere_test(U, omega, radii=RADII, budget=8, rng=k + offset)
                    counts[family] += sum(rp.refuter is not None for rp in res.radii)
    return counts


def test_the_sampler_refutes_steep_fields_at_least_as_often_as_geodesic_cuts():
    counts = refuting_radii()
    assert sum(counts.values()) >= BEFORE_DILATION, counts
