"""Solve counts of fixed cases, one per candidate and verdict kind.

A count is a property of the code, not of the host, so a candidate that
starts solving again what its construction already certifies fails here,
not only in a timing. The `solves` fixture counts every `wasserstein_exact`
call the verdicts and the sphere sampler make, memo hits included.
"""

import numpy as np
import pytest

from wasslab import wgeom
from wasslab.base_space import BaseRay, BusemannField, CustomField, DistanceField, MinField
from wasslab.discrete_measure import validate_measure
from wasslab.viscosity import (
    ConstantField,
    DistanceToField,
    dlg_test,
    greedy_descent,
    lift,
    viscosity_sphere_test,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
OMEGA = validate_measure([[0.0, 0.0], [1.5, 0.2], [-0.4, 1.1], [0.7, -1.3]],
                         [0.1, 0.2, 0.3, 0.4])
TARGET = validate_measure([[6.0, 0.5], [5.2, -1.0], [6.8, 1.4]], [0.5, 0.25, 0.25])
MIN_FIELD = lift(MinField((BusemannField(E1, 0.3), BusemannField(-E2),
                           BusemannField(np.array([-0.6, 0.8]), 0.5))), 2.0)


def test_a_translation_candidate_solves_nothing(solves):
    rng = np.random.default_rng(0)
    for r in (1.0, 0.5, 0.1):
        _, cert = wgeom._translate_candidate(OMEGA, r, 2.0, rng)
        assert abs(cert - r) <= 1e-12
    assert not solves


def test_a_dilation_candidate_solves_nothing(solves):
    rng = np.random.default_rng(0)
    for r in (1.0, 0.5, 0.1):
        x, cert = wgeom._dilation_candidate(OMEGA, r, 2.0, rng)
        assert x.n_atoms == OMEGA.n_atoms and abs(cert - r) <= 1e-12
    assert not solves


def test_analytic_candidates_solve_only_what_their_construction_leaves_open(solves):
    # every atom of a lifted Busemann field moves the same way: a tight bracket
    x, cert, value = lift(BusemannField(E1), 2.0).at(OMEGA).candidate(0.5)
    assert cert == 0.5 and not solves
    # the minimum sends OMEGA's atoms three ways, so the mean shift leaves the bracket
    # wide; the built-in base is 1-Lipschitz, so its gain closes it
    x, cert, value = MIN_FIELD.at(OMEGA).candidate(0.5)
    assert value == pytest.approx(MIN_FIELD.evaluate(OMEGA) - 0.5, abs=1e-12)
    assert cert == pytest.approx(0.5, abs=1e-12) and not solves
    # the distance field's candidate takes distance and value from its geodesic, which
    # runs along the plan of the one solve its base point made
    solves.clear()
    D = DistanceToField(TARGET, 1.0)
    point = D.at(OMEGA)
    assert len(solves) == 1 and solves[0][0] is OMEGA and solves[0][1] is TARGET
    x, cert, value = point.candidate(0.5)
    assert len(solves) == 1
    assert cert == pytest.approx(0.5, abs=1e-12)
    assert value == pytest.approx(D.evaluate(x), abs=1e-12)


def test_a_declared_bound_still_solves_its_candidate(solves):
    # -|x| moves the atoms at -0.1 and 0.1 apart: the mean shift is 0 and the atoms
    # pass within each other's reach, so only a base proven 1-Lipschitz skips the solve
    omega = validate_measure([[-0.1], [0.1]], [0.5, 0.5])
    away = lambda x: BaseRay(x, np.sign(x))  # noqa: E731
    proven = lift(DistanceField([[0.0]], sign=-1), 2.0)
    assert proven.at(omega).candidate(1.0)[1] == 1.0 and not solves
    for slope in (1.0, 2.0):
        declared = lift(CustomField(lambda x: -slope * abs(x[0]), dim=1, ray_fn=away), 2.0)
        solves.clear()
        _, cert, value = declared.at(omega).candidate(1.0)
        assert len(solves) == 1 and cert == pytest.approx(1.0, abs=1e-12)
        assert declared.evaluate(omega) - value == pytest.approx(slope, abs=1e-12)
    # the slope-2 field drops twice its distance, which refutes it
    res = viscosity_sphere_test(declared, omega, radii=(1.0,), rng=0)
    assert res.verdict == "FAIL" and res.radii[0].refuter is not None


def test_distance_field_dlg_solves_once_per_level(solves):
    D = DistanceToField(TARGET)
    value = D.evaluate(OMEGA)
    levels = (value - 1.0, value - 2.0, value - 3.0)
    solves.clear()
    assert dlg_test(D, OMEGA, levels, rng=0).verdict == "PASS"
    # U(omega), whose plan the geodesic of every level runs along
    assert len(solves) == 1


def _dlg():
    value = MIN_FIELD.evaluate(OMEGA)
    return dlg_test(MIN_FIELD, OMEGA, (value - 0.5, value - 2.0), budget=4, rng=3)


# one call of each verdict kind the benchmark's `verdicts` workload makes, budget 4, rng seed 3
VERDICTS = {
    "sphere_lifted": lambda: viscosity_sphere_test(MIN_FIELD, OMEGA, budget=4, rng=3),
    "sphere_constant": lambda: viscosity_sphere_test(ConstantField(0.0), OMEGA, budget=4, rng=3),
    "sphere_distance": lambda: viscosity_sphere_test(DistanceToField(TARGET), OMEGA, budget=4,
                                                     rng=3),
    "dlg": _dlg,
    "descent": lambda: greedy_descent(MIN_FIELD, OMEGA, eps=1e-2, steps=3, budget=4, rng=3),
    "busemann": lambda: wgeom.busemann_estimate(wgeom.dirac_ray([0.2, -0.3], E1), OMEGA,
                                                tol=1e-9, t_max=1e4),
}


@pytest.mark.parametrize("kind, expected", [
    ("sphere_lifted", 1),
    ("sphere_constant", 1),
    ("sphere_distance", 2),
    ("dlg", 0),
    ("descent", 1),
    ("busemann", 0),  # a Dirac ray's samples are product plans
])
def test_verdict_solve_counts(solves, kind, expected):
    result = VERDICTS[kind]()
    assert getattr(result, "verdict", "PASS") == ("FAIL" if kind == "sphere_constant" else "PASS")
    assert len(solves) == expected


@pytest.mark.parametrize("kind, expected", [("sphere_lifted", 1), ("dlg", 1), ("descent", 3)])
def test_lifted_ray_builds(monkeypatch, kind, expected):
    # the base field's rays once per base point: per sphere test and dlg test, and per
    # descent step
    builds = []
    build = MinField.descent_rays

    def counted(self, pts):
        builds.append(pts)
        return build(self, pts)
    monkeypatch.setattr(MinField, "descent_rays", counted)
    VERDICTS[kind]()
    assert len(builds) == expected
