import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wasslab.base_space import (
    BaseRay,
    BusemannField,
    CustomField,
    DistanceField,
    MinField,
)
from wasslab.discrete_measure import (
    MeasureSetSequence,
    dirac,
    random_measure,
    validate_measure,
)
from wasslab.errors import (
    DescentStalled,
    DimensionError,
    DomainError,
    EmptyCollection,
    InvalidRay,
    NoUsablePairs,
    UnsupportedField,
)
from wasslab.ot_exact import wasserstein_exact
from wasslab.viscosity import (
    BasePoint,
    CALIBRATION_EPS,
    ConstantField,
    DescentPolyline,
    DistanceToField,
    InfField,
    LiftedField,
    MeasureField,
    RayBusemannField,
    dlg_test,
    drop_json,
    global_slope_estimate,
    greedy_descent,
    lift,
    lifted_ray,
    lipschitz_probe,
    local_slope_estimate,
    measure_field_from_config,
    representation_check,
    viscosity_sphere_test,
)
from wasslab.wgeom import dirac_ray, dlc_limit, sphere_sample

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _mix(*pairs):
    pts = [[p] if np.isscalar(p) else list(p) for p, _ in pairs]
    w = [w for _, w in pairs]
    return validate_measure(pts, w)


def test_lift_examples():
    omega = _mix((0.0, 0.25), (1.0, 0.75))
    assert lift(CustomField(lambda x: 4.5, dim=1, lipschitz=0.0), 2.0).evaluate(omega) == 4.5
    U = lift(BusemannField(E1), 2.0)
    assert U.evaluate(dirac([3.0, 1.0])) == -3.0
    omega2 = validate_measure([[2.0, 0.0], [-4.0, 0.0]], [0.5, 0.5])
    assert U.evaluate(omega2) == pytest.approx(1.0, abs=1e-15)


def test_lift_requires_unit_lipschitz():
    with pytest.raises(DomainError):
        lift(CustomField(lambda x: 2.0 * x[0], dim=1, lipschitz=2.0), 2.0)


def test_eval_field_variants():
    assert DistanceToField(dirac([0.0]), 0.0, 2.0).evaluate(dirac([3.0])) == 3.0
    assert InfField([ConstantField(5.0), ConstantField(2.0)]).evaluate(dirac([0.0])) == 2.0
    # distance field of the escaping family at n=10, evaluated at delta_1
    from wasslab.scenarios import escaping_mixture

    u10 = DistanceToField(escaping_mixture(10, 2.0), 10.0, 2.0)
    assert u10.evaluate(dirac([1.0])) == pytest.approx(math.sqrt(99.0) - 10.0, abs=1e-12)


def test_lipschitz_probe_basics():
    rng = np.random.default_rng(0)
    pairs = [(random_measure(rng, 4, 1), random_measure(rng, 4, 1)) for _ in range(30)]
    assert lipschitz_probe(ConstantField(3.0, 2.0), pairs) == 0.0
    assert lipschitz_probe(DistanceToField(dirac([0.0]), 0.0, 2.0), pairs) <= 1.0 + 1e-9
    m = random_measure(rng, 4, 1)
    with pytest.raises(NoUsablePairs):
        lipschitz_probe(ConstantField(0.0, 2.0), [(m, m)])


def test_lipschitz_probe_battery_all_variants():
    # every shipped variant stays within ratio 1 + 1e-9; Constant sits at 0
    rng = np.random.default_rng(1)
    pairs_2d = [(random_measure(rng, 3, 2, box=3.0), random_measure(rng, 3, 2, box=3.0))
                for _ in range(200)]
    lifted = lift(MinField((BusemannField(E1), BusemannField(E2, 0.3))), 2.0)
    assert lipschitz_probe(lifted, pairs_2d) <= 1.0 + 1e-9

    dist = DistanceToField(dirac([0.0, 0.0]), 0.0, 2.0)
    assert lipschitz_probe(dist, pairs_2d) <= 1.0 + 1e-9

    inf_field = InfField([lifted, DistanceToField(dirac([2.0, 2.0]), 1.0, 2.0)])
    assert lipschitz_probe(inf_field, pairs_2d) <= 1.0 + 1e-9

    # estimator-backed variants: pin the truncation so both endpoints of a
    # pair are sampled on the same schedule, which is exactly 1-Lipschitz
    ray = dirac_ray([0.0, 0.0], E1, 2.0)
    bus = RayBusemannField(ray, tol=1e-18, t_max=64.0)
    assert lipschitz_probe(bus, pairs_2d[:40]) <= 1.0 + 1e-9

    assert lipschitz_probe(ConstantField(1.0, 2.0), pairs_2d[:20]) == 0.0


def test_local_slope_constant_and_lifted():
    omega = dirac([0.0])
    assert local_slope_estimate(ConstantField(0.0, 2.0), omega, rng=0).value == 0.0
    U = lift(BusemannField(np.array([1.0])), 2.0)
    est = local_slope_estimate(U, omega, radii=(1.0, 0.5, 0.25), rng=0)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.witness is not None
    x, cert, ratio = est.witness
    assert est.value == ratio
    with pytest.raises(DomainError):
        local_slope_estimate(U, omega, radii=(0.5, 1.0), rng=0)


def test_global_slope_corrected_one_sided_field():
    # flat left of the origin, decreasing to the right: the global slope at
    # delta_{-1} is approached through far dictionary entries
    u = CustomField(lambda x: min(0.0, -x[0]), dim=1, lipschitz=1.0)
    U = lift(u, 2.0)
    dictionary = [dirac([float(y)]) for y in range(1, 101)]
    est = global_slope_estimate(U, dirac([-1.0]), dictionary)
    assert est.value >= 0.99
    assert est.value <= 1.0 + 1e-9
    assert global_slope_estimate(ConstantField(0.0, 2.0), dirac([-1.0]), dictionary).value == 0.0
    with pytest.raises(NoUsablePairs):
        global_slope_estimate(U, dirac([-1.0]), [dirac([-1.0])])


def test_slope_dichotomy():
    rng = np.random.default_rng(2)
    lifted = lift(MinField((BusemannField(E1), BusemannField(E2, 0.4))), 2.0)
    inf_field = InfField([lift(BusemannField(E1), 2.0),
                          lift(BusemannField(E2, 0.2), 2.0)])
    for U in (lifted, inf_field):
        for _ in range(4):
            omega = random_measure(rng, 4, 2, box=3.0)
            assert viscosity_sphere_test(U, omega, rng=rng).verdict == "PASS"
            assert local_slope_estimate(U, omega, rng=rng).value >= 1.0 - 1e-3
    assert local_slope_estimate(ConstantField(0.0, 2.0),
                                random_measure(rng, 3, 2), rng=rng).value == 0.0


def test_sphere_test_checks_radii_and_eps_up_front():
    U = lift(BusemannField(np.array([1.0])), 2.0)
    omega = _mix((0.0, 0.5), (1.0, 0.5))
    for radii in ((-1.0,), (0.1, 0.5), (math.nan,), (1.0, math.nan), (math.nan, 0.5)):
        with pytest.raises(DomainError, match="radii must be positive"):
            viscosity_sphere_test(U, omega, radii=radii, rng=0)
    for eps in (-1.0, 0.0, 1.0, math.nan):
        with pytest.raises(DomainError, match="eps"):
            viscosity_sphere_test(U, omega, eps=eps, rng=0)


def test_sphere_test_lifted_min_passes():
    rng = np.random.default_rng(3)
    U = lift(MinField((BusemannField(E1), BusemannField(E2, 0.7),
                       BusemannField(-E1, -0.4))), 2.0)
    for _ in range(5):
        omega = random_measure(rng, 5, 2, box=3.0)
        res = viscosity_sphere_test(U, omega, radii=(1.0, 0.5, 0.1), eps=1e-3, rng=rng)
        assert res.verdict == "PASS"


def test_sphere_test_constant_fails_with_radius_gap():
    omega = _mix((1.0, 0.5), (-2.0, 0.5))
    res = viscosity_sphere_test(ConstantField(0.0, 2.0), omega,
                                radii=(1.0, 0.5, 0.1), eps=1e-3, rng=4)
    assert res.verdict == "FAIL"
    for rp in res.radii:
        assert rp.best_gap >= 0.9 * rp.radius


def test_sphere_test_distance_field_passes_inside():
    # target outside the probed ball: the geodesic toward it calibrates
    res = viscosity_sphere_test(DistanceToField(dirac([0.0]), 0.0, 2.0),
                                dirac([3.0]), radii=(1.0, 0.5, 0.1),
                                eps=1e-3, rng=5)
    assert res.verdict == "PASS"


def test_sphere_test_inconclusive_for_incomplete_search():
    # at its own target a distance field has slope 0, but the search cannot
    # prove absence for this variant, so the verdict stays INCONCLUSIVE
    target = dirac([0.0])
    res = viscosity_sphere_test(DistanceToField(target, 0.0, 2.0), target,
                                radii=(0.5,), eps=1e-3, rng=6)
    assert res.verdict == "INCONCLUSIVE"


def test_sphere_test_witnesses_replay():
    rng = np.random.default_rng(7)
    U = lift(MinField((BusemannField(E1), BusemannField(E2, 0.3))), 2.0)
    omega = random_measure(rng, 4, 2, box=2.0)
    res = viscosity_sphere_test(U, omega, rng=rng)
    assert res.verdict == "PASS"
    for rp in res.radii:
        x, cert, drop = rp.witness
        again_drop = U.evaluate(omega) - U.evaluate(x)
        again_cert = wasserstein_exact(omega, x, 2.0).value
        assert abs(again_drop / again_cert - drop / cert) <= 1e-9


def test_sphere_test_inf_with_bottomless_constant_fails():
    U = InfField([lift(BusemannField(E1), 2.0), ConstantField(-1e6, 2.0)])
    res = viscosity_sphere_test(U, dirac([0.0, 0.0]), radii=(1.0, 0.5), rng=8)
    assert res.verdict == "FAIL"


def test_dlg_lifted_passes_and_constant_fails():
    rng = np.random.default_rng(9)
    U = lift(BusemannField(E1, 0.2), 2.0)
    omega = random_measure(rng, 4, 2, box=2.0)
    value = U.evaluate(omega)
    res = dlg_test(U, omega, levels=(value - 1.0, value - 10.0), rng=rng)
    assert res.verdict == "PASS"
    for lp in res.levels:
        x, cert = lp.witness
        assert U.evaluate(x) <= lp.level + 1e-9
        assert cert <= (value - lp.level) + 1e-6

    const = ConstantField(0.0, 2.0)
    res = dlg_test(const, omega, levels=(-1.0,), rng=rng)
    assert res.verdict == "FAIL"

    for levels in ((value,), (value - 5e-11,), ()):
        with pytest.raises(DomainError):
            dlg_test(U, omega, levels=levels, rng=rng)


def test_dlg_stops_at_the_analytic_witness(solves):
    rng = np.random.default_rng(12)
    omega = random_measure(rng, 4, 2, box=2.0)
    state = rng.bit_generator.state
    U = lift(MinField((BusemannField(E1, 0.3), BusemannField(-E2))), 2.0)
    value = U.evaluate(omega)
    levels = (value - 0.5, value - 2.0, value - 7.0)
    assert dlg_test(U, omega, levels, rng=rng).verdict == "PASS"
    assert not solves  # each analytic witness is certified by the base's gain
    assert rng.bit_generator.state == state

    target = random_measure(np.random.default_rng(13), 3, 2, box=2.0).translate([6.0, 0.0])
    D = DistanceToField(target)
    value = D.evaluate(omega)
    levels = (value - 1.0, value - 3.0)  # both reached inside the geodesic to the target
    solves.clear()
    assert dlg_test(D, omega, levels, rng=rng).verdict == "PASS"
    # U(omega), whose plan the geodesic of every level runs along; its cuts give
    # each point's distance and value
    assert len(solves) == 1
    assert rng.bit_generator.state == state


def test_dlg_checks_the_budget_before_any_solve(solves):
    omega = dirac([0.0, 0.0])
    U = lift(BusemannField(E1), 2.0)
    with pytest.raises(DomainError, match="budget 0"):
        dlg_test(U, omega, levels=(-1.0,), budget=0)
    assert not solves


_THREE_ATOMS = ([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]], [0.5, 0.3, 0.2])


@pytest.mark.parametrize("field", ["lifted", "distance"])
@pytest.mark.parametrize("budget", [0, 2.5, math.nan, math.inf, 10**6 + 1, 1e18])
def test_the_sphere_test_refuses_a_budget_that_is_no_whole_number_before_any_solve(
        budget, field, solves):
    # unchecked, a budget of nan reads no sample, so the analytic candidates alone
    # give PASS, and one of inf or 1e18 never returns
    omega = validate_measure(*_THREE_ATOMS)
    U = lift(BusemannField(E1)) if field == "lifted" else DistanceToField(dirac([5.0, 0.0]))
    with pytest.raises(DomainError, match="budget"):
        viscosity_sphere_test(U, omega, budget=budget, rng=0)
    assert not solves


@pytest.mark.parametrize("steps", [2.5, math.nan, math.inf, 10**6 + 1, 1e18])
def test_greedy_descent_refuses_a_step_count_that_is_no_whole_number(steps, solves):
    # unchecked, these raise a bare TypeError from range()
    omega = validate_measure(*_THREE_ATOMS)
    with pytest.raises(DomainError, match="steps"):
        greedy_descent(DistanceToField(dirac([5.0, 0.0])), omega, eps=1e-2, steps=steps)
    assert not solves


def test_whole_float_counts_read_as_their_ints():
    omega = validate_measure(*_THREE_ATOMS)
    U = lift(BusemannField(E1))
    as_int = viscosity_sphere_test(U, omega, budget=3, rng=0).to_json_dict()
    assert viscosity_sphere_test(U, omega, budget=3.0, rng=0).to_json_dict() == as_int
    walks = [greedy_descent(U, omega, eps=1e-2, steps=s, budget=b, rng=0)
             for s, b in ((2, 3), (2.0, 3.0))]
    assert walks[0].times == walks[1].times and walks[0].values == walks[1].values


def test_dlg_constant_reads_the_whole_stream():
    omega = _mix((0.0, 0.5), (1.0, 0.5))
    levels, budget = (-1.0, -2.5), 3
    rng, replay = np.random.default_rng(14), np.random.default_rng(14)
    res = dlg_test(ConstantField(0.0, 2.0), omega, levels, budget=budget, rng=rng)
    assert res.verdict == "FAIL"
    for c in levels:
        sphere_sample(omega, -c, 2.0, budget=budget, rng=replay)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_greedy_descent_follows_ray():
    rng = np.random.default_rng(10)
    U = lift(BusemannField(E1), 2.0)
    omega = random_measure(rng, 4, 2, box=2.0)
    poly = greedy_descent(U, omega, eps=1e-2, steps=20, step_length=1.0, rng=rng)
    assert len(poly.vertices) == 21
    assert abs((poly.values[0] - poly.values[-1]) - 20.0) <= 1e-8
    assert poly.check_inequality()
    assert poly.observed_slack() <= 1e-2
    for step_length in (-1.0, math.nan):
        with pytest.raises(DomainError, match="step_length"):
            greedy_descent(U, omega, eps=1e-2, steps=1, step_length=step_length, rng=rng)
    with pytest.raises(DomainError, match="eps nan"):
        greedy_descent(U, omega, eps=math.nan, steps=1, rng=rng)


def test_greedy_descent_constant_stalls_at_first_step():
    with pytest.raises(DescentStalled) as err:
        greedy_descent(ConstantField(0.0, 2.0), dirac([0.0, 0.0]),
                       eps=1e-2, steps=5, rng=11)
    assert err.value.step == 1
    assert len(err.value.polyline.vertices) == 1
    assert err.value.best_gap > 0.5



def test_a_stall_names_its_refuter():
    # too steep: the slope-2 field's own ray drops 2 over arc length 1 and refutes it
    with pytest.raises(DescentStalled) as err:
        greedy_descent(_steep(2.0), _mix((0.0, 0.5), (1.0, 0.5)), eps=1e-2, steps=5, rng=0)
    assert err.value.step == 1
    x, cert, drop = err.value.refuter
    assert cert == pytest.approx(1.0) and drop == pytest.approx(2.0)
    assert x.support.ravel().tolist() == pytest.approx([1.0, 2.0])
    # too flat: nothing drops, so nothing refutes
    with pytest.raises(DescentStalled) as err:
        greedy_descent(ConstantField(0.0, 2.0), dirac([0.0, 0.0]), eps=1e-2, steps=5, rng=11)
    assert err.value.step == 1 and err.value.refuter is None

def test_greedy_descent_min_locus_switch_keeps_inequality():
    # descent of a two-horizon minimum crosses the switching locus
    U = InfField([lift(BusemannField(E1), 2.0),
                  lift(BusemannField(-E1, 1.0), 2.0)])
    omega = dirac([0.4, 0.0])
    poly = greedy_descent(U, omega, eps=0.5, steps=6, step_length=1.0, rng=12)
    assert poly.check_inequality()


def test_subray_recovery():
    rng = np.random.default_rng(13)
    U = lift(BusemannField(E1, 0.1), 2.0)
    omega = random_measure(rng, 3, 2, box=2.0)
    ray = lifted_ray(U, omega)
    tau = 2.0
    poly = greedy_descent(U, ray.eval(tau), eps=1e-3, steps=5,
                          step_length=1.0, rng=rng)
    for t in (1, 2, 5):
        gap = wasserstein_exact(poly.vertices[t], ray.eval(tau + t), 2.0).value
        assert gap <= 1e-8


def test_lifted_ray_translation_and_calibration():
    U = lift(BusemannField(E1), 2.0)
    omega = validate_measure([[0.0, 0.0], [5.0, 5.0]], [0.5, 0.5])
    ray = lifted_ray(U, omega)
    moved = ray.eval(3.0)
    assert np.allclose(sorted(moved.support[:, 0]), [3.0, 8.0])
    drop = U.evaluate(ray.eval(0.0)) - U.evaluate(ray.eval(7.0))
    assert abs(drop - 7.0) <= 1e-10
    span = wasserstein_exact(ray.eval(0.0), ray.eval(7.0), 2.0).value
    assert abs(span - 7.0) <= 1e-8
    with pytest.raises(UnsupportedField):
        lifted_ray(ConstantField(0.0, 2.0), omega)


def test_representation_check_pass_and_invalid_ray():
    rng = np.random.default_rng(14)
    U = lift(BusemannField(E1, 0.3), 2.0)
    rays = [lifted_ray(U, random_measure(rng, 3, 2, box=2.0)) for _ in range(5)]
    omega = random_measure(rng, 3, 2, box=2.0)
    rep = representation_check(U, omega, rays)
    assert rep["verdict"] == "PASS"
    assert abs(rep["own_ray"]["busemann"]) <= 1e-6
    for entry in rep["rays"]:
        assert entry["slack"] >= -1e-6

    wrong = lifted_ray(lift(BusemannField(E2), 2.0), omega)
    with pytest.raises(InvalidRay):
        representation_check(U, omega, [wrong])


def test_dlg_to_dlc_consistency():
    # sublevel witnesses along the field's own ray reproduce the value as a
    # distance limit; measure spreads are kept small so the 1/(2t) tail at
    # n_max = 2^10 sits under the 1e-6 budget
    U = lift(BusemannField(E1, 0.3), 2.0)
    omega0 = validate_measure([[0.0, 0.01], [0.02, -0.01]], [0.5, 0.5])
    omega = dirac([0.4, 0.02])
    ray = lifted_ray(U, omega0)
    v0 = U.evaluate(omega0)
    seq = MeasureSetSequence(lambda n: [ray.eval(v0 + float(n))], lambda n: float(n))
    value, _, _ = dlc_limit(seq, omega, 2.0, tol=1e-9, n_max=2**10)
    assert abs(value - U.evaluate(omega)) <= 1e-6


def test_inf_field_contracts_and_the_configs_single_member_passes_through():
    U = lift(BusemannField(E1), 2.0)
    lifted = {"kind": "lifted", "base": {"variant": "busemann", "direction": [1.0, 0.0]}}
    one = measure_field_from_config({"kind": "inf", "members": [lifted]})
    assert type(one) is LiftedField and one.base.direction.tolist() == [1.0, 0.0]
    with pytest.raises(EmptyCollection):
        measure_field_from_config({"kind": "inf", "members": []})
    with pytest.raises(EmptyCollection):
        InfField(())
    with pytest.raises(DomainError, match="exponent"):
        InfField((U, ConstantField(0.0, 3.0)))
    assert InfField([U]).members == (U,)


def test_lifted_field_refuses_a_measure_of_another_dimension():
    omega = _mix((0.0, 0.5), (1.0, 0.5))
    # a distance base once broadcast a 1-d omega against its 2-d anchor
    for base in (BusemannField(E1), DistanceField([[0.0, 0.0]])):
        with pytest.raises(DimensionError):
            lift(base, 2.0).evaluate(omega)
        with pytest.raises(DimensionError):
            viscosity_sphere_test(lift(base, 2.0), omega, rng=0)


def _steep(slope, direction=(1.0,), shift=None):
    """A lifted field of slope `slope` along `direction` that declares Lipschitz bound 1."""
    u = np.asarray(direction, dtype=float)
    at = np.zeros_like(u) if shift is None else np.asarray(shift, dtype=float)
    return lift(CustomField(lambda x: -slope * float(np.dot(x - at, u)), dim=u.shape[0],
                            ray_fn=lambda x: BaseRay(x, u)), 2.0)


def test_a_drop_beyond_its_distance_rules_out_pass():
    steep = _steep(2.0)
    omega = _mix((0.0, 0.5), (1.0, 0.5))
    assert local_slope_estimate(steep, omega, rng=0).value == pytest.approx(2.0)
    res = viscosity_sphere_test(steep, omega, rng=0)
    assert res.verdict == "FAIL"
    for rp in res.radii:
        x, cert, drop = rp.refuter
        assert drop == pytest.approx(2.0 * cert) and cert == pytest.approx(rp.radius)
        assert rp.to_json_dict()["refuter"]["drop"] == drop
    value = steep.evaluate(omega)
    dlg = dlg_test(steep, omega, levels=(value - 1.0, value - 10.0), rng=0)
    assert dlg.verdict == "FAIL"
    assert all(lp.refuter is not None for lp in dlg.levels)
    assert dlg.levels[0].to_json_dict()["refuter"]["distance"] == pytest.approx(1.0)
    # without rays the search is not exhaustive, so a refuter gives INCONCLUSIVE
    rayless = lift(CustomField(lambda x: -2.0 * x[0], dim=1), 2.0)
    assert viscosity_sphere_test(rayless, omega, rng=0).verdict == "INCONCLUSIVE"
    assert dlg_test(rayless, omega, levels=(value - 1.0,), rng=0).verdict == "INCONCLUSIVE"


def test_descent_never_steps_on_a_drop_beyond_its_distance():
    steep = _steep(2.0)
    omega = _mix((0.0, 0.5), (1.0, 0.5))
    with pytest.raises(DescentStalled) as err:
        greedy_descent(steep, omega, eps=1e-2, steps=5, rng=0)
    assert err.value.step == 1
    assert err.value.best_gap == pytest.approx(-1.0)
    # a walk along the steep field's rays: a drop of 2 per unit of arc length
    vertices = tuple(omega.translate([float(k)]) for k in range(3))
    values = tuple(steep.evaluate(v) for v in vertices)
    poly = DescentPolyline(vertices, (0.0, 1.0, 2.0), (2.0, 2.0), values, 1e-2, 2.0)
    assert not poly.check_inequality()
    assert poly.observed_slack() == pytest.approx(-1.0)
    honest = DescentPolyline(vertices, (0.0, 2.0, 4.0), (2.0, 2.0), values, 1e-2, 2.0)
    assert honest.observed_slack() == pytest.approx(0.0)
    assert DescentPolyline(vertices[:1], (0.0,), (), values[:1], 1e-2, 2.0).observed_slack() == 0.0


_VERDICTS = settings(max_examples=50, deadline=None, derandomize=True)
_UNIT = st.floats(0.0, 2.0 * math.pi).map(lambda a: np.array([math.cos(a), math.sin(a)]))


@st.composite
def _omega(draw):
    """A 1-4 atom measure in the plane, drawn from a hypothesis-chosen seed."""
    return random_measure(np.random.default_rng(draw(st.integers(0, 2**16))), 4, 2, box=2.0)


@st.composite
def _busemann_min(draw):
    """The lift of a minimum of 1-3 Busemann fields in the plane: a true unit-slope field."""
    members = [BusemannField(draw(_UNIT), draw(st.floats(-1.0, 1.0)))
               for _ in range(draw(st.integers(1, 3)))]
    return lift(MinField(members), 2.0)


def _verdicts(U, omega, seed):
    value = U.evaluate(omega)
    return (viscosity_sphere_test(U, omega, budget=3, rng=seed).verdict,
            dlg_test(U, omega, levels=(value - 0.5, value - 3.0), budget=3, rng=seed).verdict)


@_VERDICTS
@given(_busemann_min(), _omega(), st.integers(0, 99))
def test_unit_slope_minima_never_fail(U, omega, seed):
    assert "FAIL" not in _verdicts(U, omega, seed)


@_VERDICTS
@given(st.floats(-5.0, 5.0), st.sampled_from([1.0, 2.0, 3.0]), _omega(), st.integers(0, 99))
def test_constants_never_pass(value, p, omega, seed):
    assert "PASS" not in _verdicts(ConstantField(value, p), omega, seed)


@_VERDICTS
@given(st.floats(1.1, 3.0), _UNIT, _omega(), st.integers(0, 99))
def test_an_understated_lipschitz_bound_never_passes(slope, direction, omega, seed):
    assert "PASS" not in _verdicts(_steep(slope, direction), omega, seed)


@_VERDICTS
@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2), _omega(), st.integers(0, 99))
def test_a_lifted_distance_from_one_anchor_never_fails(anchor, omega, seed):
    # -|x - a| is 1-Lipschitz by construction, and its candidates are certified by that
    assert "FAIL" not in _verdicts(lift(DistanceField(np.array([anchor]), sign=-1), 2.0),
                                   omega, seed)


@_VERDICTS
@given(st.floats(0.1, 1.0 - 2.0 * CALIBRATION_EPS), _UNIT, st.floats(-1.0, 1.0), _omega(),
       st.integers(0, 99))
def test_a_busemann_field_of_slope_below_one_never_passes(c, direction, offset, omega, seed):
    # c times a Busemann field drops at most c per unit of distance, short of 1 - eps
    flat = CustomField(lambda x: c * (offset - float(np.dot(x, direction))), dim=2,
                       lipschitz=c, ray_fn=lambda x: BaseRay(x, direction))
    assert "PASS" not in _verdicts(lift(flat, 2.0), omega, seed)


@_VERDICTS
@given(st.sampled_from(["busemann", "constant", "steep"]), _busemann_min(), _omega(),
       st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2), st.integers(0, 99))
def test_translating_omega_and_field_keeps_the_verdicts(kind, U, omega, v, seed):
    v = np.array(v)
    if kind == "busemann":
        moved = lift(MinField([BusemannField(f.direction, f.offset + float(v @ f.direction))
                               for f in getattr(U.base, "fields", (U.base,))]), 2.0)
    elif kind == "constant":
        U = moved = ConstantField(1.0, 2.0)
    else:
        U, moved = _steep(2.0, E1), _steep(2.0, E1, shift=v)
    assert _verdicts(moved, omega.translate(v), seed) == _verdicts(U, omega, seed)


def test_inf_of_lifted_passes_sphere_at_many_points():
    rng = np.random.default_rng(15)
    U = InfField([lift(BusemannField(E1), 2.0),
                  lift(BusemannField(E2, 0.5), 2.0)])
    for _ in range(10):
        omega = random_measure(rng, 4, 2, box=3.0)
        res = viscosity_sphere_test(U, omega, eps=1e-3, budget=4, rng=rng)
        assert res.verdict == "PASS"


@pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
def test_fields_and_rays_refuse_a_bad_exponent_when_built(p):
    # W_p is no metric below p = 1: a lifted field built at p = 0.5 once passed dlg_test
    builds = (lambda: lift(BusemannField(E1), p), lambda: ConstantField(0.0, p),
              lambda: DistanceToField(dirac([1.0, 0.0]), 0.0, p),
              lambda: dirac_ray([0.0, 0.0], E1, p))
    for build in builds:
        with pytest.raises(DomainError, match="exponent"):
            build()


def test_busemann_field_memoizes(solve_calls):
    # the field keeps no cache of its own: the solve memo serves the repeat
    start = validate_measure([[0.0, 0.0], [0.0, 2.0]], [0.5, 0.5])
    field = RayBusemannField(lifted_ray(lift(BusemannField(E1), 2.0), start),
                             tol=1e-6, t_max=256.0)
    omega = validate_measure([[1.0, 1.0], [3.0, -1.0]], [0.25, 0.75])
    a = field.evaluate(omega)
    solves = len(solve_calls)
    assert solves > 0
    assert field.evaluate(omega) == a
    assert len(solve_calls) == solves


def test_measure_field_from_config():
    cfg = {
        "kind": "inf",
        "members": [
            {"kind": "lifted", "base": {"variant": "busemann", "direction": [1.0, 0.0]}},
            {"kind": "constant", "value": 3.0},
        ],
    }
    U = measure_field_from_config(cfg, default_p=2.0)
    assert U.evaluate(dirac([-5.0, 0.0])) == 3.0
    assert U.evaluate(dirac([5.0, 0.0])) == -5.0
    dist_cfg = {"kind": "distance_to",
                "target": {"dim": 1, "support": [[0.0]], "weights": [1.0]},
                "offset": 1.0}
    assert measure_field_from_config(dist_cfg).evaluate(dirac([3.0])) == 2.0
    with pytest.raises(DomainError):
        measure_field_from_config({"kind": "nope"})


def _floor_measure(rng, k, dim, scale, uniform):
    w = np.full(k, 1.0 / k) if uniform else rng.random(k) + 0.05
    return validate_measure(rng.uniform(-scale, scale, (k, dim)), w / w.sum())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3),
       st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0]), st.floats(-3.0, 3.0), st.booleans(),
       st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
def test_a_distance_floor_never_exceeds_the_solved_value(n, m, dim, p, log_scale, uniform,
                                                         offset, seed):
    # weak duality makes the floor a proof, and the solver's certified potentials make it
    # the solved value at omega on every plan, degenerate or a Dirac on either side;
    # `lower` adds the margin the verdicts skip by
    scale = 10.0 ** log_scale
    rng = np.random.default_rng(seed)
    omega = _floor_measure(rng, n, dim, scale, uniform)
    target = _floor_measure(rng, m, dim, scale, uniform)
    D = DistanceToField(target, offset * scale, p)
    point = D.at(omega)
    res = wasserstein_exact(omega, target, p)
    assert abs(point.floor(omega) - point.value) <= 1e-12 * res.value
    moved = omega.translate(rng.normal(scale=0.3 * scale, size=dim))
    for x in (omega, moved, _floor_measure(rng, int(rng.integers(1, 13)), dim, scale, uniform)):
        d = wasserstein_exact(omega, x, p).value
        assert point.lower(x, d) <= D.evaluate(x)


def _reader_results(U, omega, seed):
    """Every output of the four slope verdicts on U at omega, as JSON."""
    value = U.evaluate(omega)
    est = local_slope_estimate(U, omega, budget=4, rng=seed)
    out = [viscosity_sphere_test(U, omega, budget=4, rng=seed).to_json_dict(),
           viscosity_sphere_test(U, omega, eps=0.5, budget=4, rng=seed).to_json_dict(),
           dlg_test(U, omega, (value - 0.5, value - 2.0), budget=4, rng=seed).to_json_dict(),
           [est.value, drop_json(est.witness), est.skipped_radii]]
    try:
        poly = greedy_descent(U, omega, eps=1e-2, steps=3, budget=4, rng=seed)
        out.append([[v.to_json_dict() for v in poly.vertices], poly.times, poly.values])
    except DescentStalled as exc:
        out.append([exc.step, exc.best_gap, drop_json(exc.refuter)])
    return json.dumps(out)


@pytest.mark.parametrize("seed", range(6))
def test_the_floor_changes_no_verdict_output(solves, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    omega = random_measure(rng, 4, 2, box=1.0)
    # one target past every radius and one within the largest, where the geodesic
    # candidate stops short and a sphere sample has to be the witness
    far = random_measure(rng, 4, 2, box=1.0).translate([5.0, 0.0])
    near = random_measure(rng, 3, 2, box=0.2).translate(omega.support.mean(axis=0) + [0.6, 0.0])
    fields = [DistanceToField(far), DistanceToField(near, 0.3),
              InfField([DistanceToField(far), DistanceToField(near, 0.3)])]
    with_floor = [_reader_results(U, omega, seed) for U in fields]
    read = len(solves)
    solves.clear()
    monkeypatch.setattr(BasePoint, "lower", lambda self, x, d: -math.inf)
    assert [_reader_results(U, omega, seed) for U in fields] == with_floor
    assert read < len(solves)


class _Tabled(MeasureField):
    """A value for each listed measure, 0 elsewhere; its exact value is its floor."""

    p = 2.0

    def __init__(self, table):
        self.table = table

    def evaluate(self, x):
        return self.table.get(x.cache_key(), 0.0)

    def at(self, omega):
        return _ExactPoint(self, omega)


class _ExactPoint(BasePoint):
    def floor(self, x):
        return self.field.evaluate(x)


def _close_samples():
    """A measure whose atoms lie closer than radius 1, and its four samples there at rng 0."""
    omega = validate_measure([[0.0, 0.0], [0.05, 0.0], [0.0, 0.07]], [0.3, 0.3, 0.4])
    return omega, sphere_sample(omega, 1.0, 2.0, budget=4, rng=0)


def _dropping(found, drops):
    """A tabled field, 0 at the base measure, that drops drops[i] at the i-th sample."""
    return _Tabled({x.cache_key(): -drop for (x, _), drop in zip(found, drops)})


def _unfloored(monkeypatch):
    monkeypatch.setattr(BasePoint, "lower", lambda self, x, d: -math.inf)


def test_a_skip_never_hides_a_witness(monkeypatch):
    # the second sample has the least gap and is no witness; the third is one, at a
    # larger distance with a larger gap, so only the witness rule has it read
    omega, found = _close_samples()
    eps = 0.5
    (_, d1), (_, d2), (_, d3), (_, d4) = found
    assert d2 < d3
    gaps = (0.9 * d1, eps * (d2 + d3) / 2.0, eps * d3, 0.9 * d4)
    U = _dropping(found, [d - gap for (_, d), gap in zip(found, gaps)])
    res = viscosity_sphere_test(U, omega, radii=(1.0,), eps=eps, budget=4, rng=0)
    assert res.verdict == "PASS" and res.radii[0].witness[1] == d3
    assert res.radii[0].best_gap == gaps[1]
    _unfloored(monkeypatch)
    unfloored = viscosity_sphere_test(U, omega, radii=(1.0,), eps=eps, budget=4, rng=0)
    assert unfloored.to_json_dict() == res.to_json_dict()


def test_a_skip_never_hides_a_refuter(monkeypatch):
    # the second sample, nearer than the level's distance 1, drops more than its own
    # distance yet stays above the level, so only the refuter rule has dlg_test read it
    omega, found = _close_samples()
    d = [dist for _, dist in found]
    assert d[1] < 1.0
    U = _dropping(found, (0.5 * d[0], (1.0 + d[1]) / 2.0, 0.5 * d[2], 0.5 * d[3]))
    res = dlg_test(U, omega, levels=(-1.0,), budget=4, rng=0)
    assert res.verdict == "INCONCLUSIVE" and res.levels[0].refuter[1] == d[1]
    _unfloored(monkeypatch)
    assert dlg_test(U, omega, levels=(-1.0,), budget=4, rng=0).to_json_dict() == res.to_json_dict()


def test_a_skip_never_hides_a_better_ratio(monkeypatch):
    omega, found = _close_samples()
    U = _dropping(found, [ratio * d for (_, d), ratio in zip(found, (0.5, 0.3, 0.9, 0.2))])
    est = local_slope_estimate(U, omega, radii=(1.0,), budget=4, rng=0)
    assert est.value == pytest.approx(0.9, rel=1e-12) and est.witness[1] == found[2][1]
    _unfloored(monkeypatch)
    again = local_slope_estimate(U, omega, radii=(1.0,), budget=4, rng=0)
    assert (again.value, again.witness[1]) == (est.value, est.witness[1])


def test_a_skip_never_hides_a_better_step(monkeypatch):
    # the first sample is admissible; the third has the better margin, so only the
    # margin rule has greedy_descent read it once a step is found
    omega, found = _close_samples()
    U = _dropping(found, [d - gap for (_, d), gap in zip(found, (0.04, 0.2, 0.01, 0.3))])
    poly = greedy_descent(U, omega, eps=0.1, steps=1, budget=4, rng=0)
    assert poly.times[1] == found[2][1] and poly.vertices[1].cache_key() == found[2][0].cache_key()
    _unfloored(monkeypatch)
    again = greedy_descent(U, omega, eps=0.1, steps=1, budget=4, rng=0)
    assert (again.times, again.drops, again.values) == (poly.times, poly.drops, poly.values)
