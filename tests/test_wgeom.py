import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wasslab import ot_exact, wgeom
from wasslab.base_space import (
    UNIT_TOL,
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
    DimensionError,
    DomainError,
    EmptyCollection,
    InvalidRay,
    SequenceTooClose,
    SphereSamplingFailed,
    UnsupportedField,
)
from wasslab.measure_fields import lift, lifted_ray
from wasslab.ot_exact import brute_force_oracle, wasserstein_exact
from wasslab.scenarios import escaping_mixture
from wasslab.wgeom import (
    WassersteinRay,
    busemann_estimate,
    cs_diagnostic,
    dirac_ray,
    displacement_path,
    dlc_limit,
    sphere_candidates,
    sphere_sample,
)


def test_dirac_transport_path():
    path = displacement_path(dirac([0.0]), dirac([4.0]), 2.0)
    mid = path.eval(2.0)
    assert mid.n_atoms == 1 and abs(mid.support[0, 0] - 2.0) <= 1e-12


def test_path_endpoints():
    mu = validate_measure([[0.0], [2.0]], [0.5, 0.5])
    nu = validate_measure([[1.0], [3.0]], [0.5, 0.5])
    path = displacement_path(mu, nu, 2.0, check=True)
    assert wasserstein_exact(path.eval(0.0), mu, 2.0).value <= 1e-10
    assert wasserstein_exact(path.eval(path.length), nu, 2.0).value <= 1e-10


def test_monotone_midpoint():
    mu = validate_measure([[0.0], [2.0]], [0.5, 0.5])
    nu = validate_measure([[1.0], [3.0]], [0.5, 0.5])
    path = displacement_path(mu, nu, 2.0)
    mid = path.eval(path.length / 2.0)
    assert np.allclose(mid.support[:, 0], [0.5, 2.5])
    assert np.allclose(mid.weights, [0.5, 0.5])


def test_geodesic_property_random():
    rng = np.random.default_rng(0)
    for k in range(20):
        p = (2.0, 3.0)[k % 2]
        d = int(rng.integers(1, 4))
        path = displacement_path(random_measure(rng, 6, d),
                                 random_measure(rng, 6, d), p)
        for _ in range(10):
            s, t = np.sort(rng.uniform(0.0, path.length, 2))
            dist = wasserstein_exact(path.eval(s), path.eval(t), p).value
            assert abs(dist - (t - s)) <= 1e-8


def test_path_domain_and_flags():
    mu = validate_measure([[0.0], [2.0]], [0.5, 0.5])
    nu = validate_measure([[1.0], [3.0]], [0.5, 0.5])
    path = displacement_path(mu, nu, 2.0)
    with pytest.raises(DomainError):
        path.eval(-0.5)
    with pytest.raises(DomainError):
        path.eval(path.length + 1.0)
    for p in (math.nan, math.inf, 0.5):
        with pytest.raises(DomainError):
            displacement_path(mu, nu, p)
    assert displacement_path(mu, nu, 1.0).nonunique
    degen = displacement_path(mu, mu, 2.0)
    assert degen.degenerate
    assert degen.eval(0.0) is mu
    with pytest.raises(DomainError):
        degen.eval(0.5)


def test_busemann_own_ray_is_zero():
    omega = validate_measure([[0.0, 0.0], [2.0, 1.0]], [0.4, 0.6])
    U = lift(BusemannField(np.array([0.6, 0.8])), 2.0)
    ray = lifted_ray(U, omega)
    est = busemann_estimate(ray, omega, tol=1e-6, t_max=1e4)
    assert abs(est.value) <= 1e-6
    assert est.converged


def test_busemann_dirac_direction_closed_form():
    v = np.array([0.28, 0.96])
    ray = dirac_ray([0.0, 0.0], v, 2.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        s0 = rng.uniform(-2.0, 2.0)
        pts = s0 * v + rng.uniform(-0.03, 0.03, size=(3, 2))
        w = rng.random(3) + 0.1
        omega = validate_measure(pts, w / w.sum())
        est = busemann_estimate(ray, omega, tol=1e-9, t_max=1e4)
        closed = -float(np.dot(omega.weights, omega.support @ v))
        assert abs(est.value - closed) <= 1e-6


def test_busemann_of_translating_ray_matches_lifted_gap():
    # a ray translating every atom along v has horizon value equal to the
    # lifted linear field gap between omega and the ray start; tight spreads
    # keep the 1/(2t) truncation tail under the 1e-6 budget
    v = np.array([1.0, 0.0])
    U = lift(BusemannField(v), 2.0)
    start = validate_measure([[0.0, 0.02], [0.05, -0.01]], [0.5, 0.5])
    omega = validate_measure([[0.4, 0.01], [0.42, 0.03]], [0.3, 0.7])
    ray = lifted_ray(U, start)
    est = busemann_estimate(ray, omega, tol=1e-9, t_max=2.0**16)
    closed = U.evaluate(omega) - U.evaluate(start)
    assert abs(est.value - closed) <= 1e-6


def test_busemann_on_ray_point():
    omega = validate_measure([[0.0, 0.0], [1.0, 2.0]], [0.5, 0.5])
    U = lift(BusemannField(np.array([1.0, 0.0])), 2.0)
    ray = lifted_ray(U, omega)
    s = 3.0
    est = busemann_estimate(ray, ray.eval(s), tol=1e-6, t_max=1e4)
    assert abs(est.value - (-s)) <= 1e-6


def test_busemann_trace_monotone_and_errors():
    ray = dirac_ray([0.0], [1.0], 2.0)
    omega = validate_measure([[0.0], [5.0]], [0.5, 0.5])
    est = busemann_estimate(ray, omega, tol=1e-9, t_max=1e4)
    gs = [g for _, g in est.samples]
    assert all(gs[k + 1] <= gs[k] + 1e-9 for k in range(len(gs) - 1))
    with pytest.raises(DomainError):
        busemann_estimate(ray, omega, tol=0.0)
    with pytest.raises(DomainError):
        busemann_estimate(ray, omega, t_max=0.5)
    with pytest.raises(DomainError, match="tolerance nan"):
        busemann_estimate(ray, omega, tol=math.nan)
    for t_max in (math.nan, math.inf):
        with pytest.raises(DomainError, match="must be finite"):
            busemann_estimate(ray, omega, t_max=t_max)


def _solved_sample(mu, z, b, p):
    """W_p(mu, b * delta_z) by building the Dirac and solving: the route of a multi-atom ray."""
    return wasserstein_exact(mu, validate_measure(z, b), p).value


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 3), st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0]),
       st.floats(-3.0, 3.0), st.sampled_from([1e-3, 1e-9]), st.integers(0, 2**32 - 1))
def test_dirac_ray_samples_are_the_solved_values(n, dim, p, log_scale, tol, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    omega = random_measure(rng, n, dim, box=scale, min_atoms=n)
    u = rng.normal(size=dim)
    ray = dirac_ray(rng.uniform(-scale, scale, dim), u / np.sqrt(u.dot(u)), p)
    ot_exact._memo.clear()  # the fixture empties it once per test, not per example
    est = busemann_estimate(ray, omega, tol=tol, t_max=1e4)
    assert not ot_exact._memo  # no sample was solved
    for t, g in est.samples:
        assert g == wasserstein_exact(omega, ray.eval(t), p).value - t
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wgeom, "dirac_value", _solved_sample)
        solved = busemann_estimate(ray, omega, tol=tol, t_max=1e4)
    assert (est.samples, est.converged, est.tail_gap, est.value, est.truncation) == (
        solved.samples, solved.converged, solved.tail_gap, solved.value, solved.truncation)


def test_dirac_ray_samples_raise_what_a_solve_raises():
    # a wrong dimension reaches the samples; a non-finite origin is refused when the
    # ray is built, so a sample's own refusal of it is checked on the sample alone
    planar = validate_measure([[0.0, 1.0], [2.0, -1.0]], [0.5, 0.5])
    ray = dirac_ray([0.0], [1.0], 2.0)
    z = np.array([[math.inf]])
    messages = {DimensionError: [], DomainError: []}
    for route in (wgeom.dirac_value, _solved_sample):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wgeom, "dirac_value", route)
            with pytest.raises(DimensionError) as info:
                busemann_estimate(ray, planar)
        messages[DimensionError].append(str(info.value))
        with pytest.raises(DomainError) as info:
            route(dirac([1.0]), z, np.array([1.0]), 2.0)
        messages[DomainError].append(str(info.value))
    for found in messages.values():
        assert found[0] == found[1]
    with pytest.raises(DomainError, match="non-finite"):
        dirac_ray([math.inf], [1.0], 2.0)


def test_dirac_ray_stops_before_its_later_samples():
    # g(t) = W_64(delta_{-1}, delta_t) - t = 1 from t = 1 on, so the estimate stops at
    # t = 2; a sample at t = 2**19 would overflow |x - z|**64 and warn
    ray = dirac_ray([0.0], [1.0], 64.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = busemann_estimate(ray, dirac([-1.0]), tol=1e-6, t_max=1e6)
    assert est.converged and est.truncation == 2.0


def test_sphere_sample_dirac_translation():
    samples = sphere_sample(dirac([0.0, 0.0]), 1.0, 2.0, budget=3, rng=0)
    for cand, cert in samples:
        assert 0.9 <= cert <= 1.1
    translated = [c for c, cert in samples if abs(cert - 1.0) <= 1e-10]
    assert translated, "rigid translation must certify exactly at the radius"


def test_sphere_sample_translation_always_exact():
    rng = np.random.default_rng(2)
    omega = random_measure(rng, 5, 2)
    for _ in range(6):
        _, cert = wgeom._translate_candidate(omega, 0.7, 2.0, rng)
        assert abs(cert - 0.7) <= 1e-10


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 12), st.integers(1, 3), st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0]),
       st.floats(-2.0, 2.0), st.floats(0.01, 2.0), st.integers(0, 2**32 - 1))
def test_a_dilation_is_certified_at_the_solved_distance(solves, n, dim, p, log_scale, frac,
                                                        seed):
    # |lam - 1| W_p(omega, delta_c) is both ends of the bracket, so nothing is solved
    # unless atoms merged and left their rows
    scale = 10.0 ** log_scale
    rng = np.random.default_rng(seed)
    omega = random_measure(rng, n, dim, box=scale, min_atoms=n)
    r = frac * scale
    solves.clear()
    got = wgeom._dilation_candidate(omega, r, p, rng)
    assume(got is not None)
    x, cert = got
    assert abs(cert - wasserstein_exact(omega, x, p).value) <= 1e-12 * cert
    assert abs(cert - r) <= 1e-12 * r
    if x.n_atoms == n:
        assert not solves


class _Zeros:
    """An rng stub whose normals are 0 and whose uniforms are 0."""

    def normal(self, size=None):
        return np.zeros(size)

    def random(self):
        return 0.0


def test_a_dilation_about_a_dirac_itself_is_no_candidate(solves):
    # the centre falls on the only atom, where every dilation stays put
    assert wgeom._dilation_candidate(dirac([0.5, -1.0]), 0.3, 2.0, _Zeros()) is None
    assert not solves


def test_single_atom_shift_certificate(solves):
    # moving either atom by 2 certifies sqrt(1/2 * 4) = sqrt(2): the move stays
    # within the distance 4 to the other atom, so the identity pairing is optimal
    omega = validate_measure([[0.0], [4.0]], [0.5, 0.5])
    moved = validate_measure([[0.0], [6.0]], [0.5, 0.5])
    cert = brute_force_oracle(omega, moved, 2.0).value
    assert abs(cert - math.sqrt(2.0)) <= 1e-12
    rng = np.random.default_rng(3)
    for _ in range(6):
        solves.clear()
        cand, c = wgeom._atom_shift_candidate(omega, math.sqrt(2.0), 2.0, rng)
        # the search starts at s = r / sqrt(1/2) = 2, where the move alone costs r
        assert not solves
        assert 0.9 * math.sqrt(2.0) <= c <= 1.1 * math.sqrt(2.0)
        assert abs(c - brute_force_oracle(omega, cand, 2.0).value) <= 1e-12


def test_atom_shift_past_a_neighbour_still_lands(solves):
    # s = 2 pushes an atom of 1/2 d0 + 1/2 d1 past the other one, where the
    # monotone pairing costs less than r; the rescaled tries recover the band
    omega = validate_measure([[0.0], [1.0]], [0.5, 0.5])
    r = math.sqrt(2.0)
    rng = np.random.default_rng(4)
    tries = []
    for _ in range(12):
        solves.clear()
        cand, c = wgeom._atom_shift_candidate(omega, r, 2.0, rng)
        tries.append(len(solves))
        assert 0.9 * r <= c <= 1.1 * r
        assert abs(c - brute_force_oracle(omega, cand, 2.0).value) <= 1e-12
    assert max(tries) > 1 and max(tries) <= 8


def _read_all(candidates):
    """The whole list a sampler call gives, or the message of its failure."""
    try:
        return list(candidates())
    except SphereSamplingFailed as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.sampled_from([1, 2, 3]), st.sampled_from([1.0, 2.0, 3.0]),
       st.integers(1, 6), st.floats(0.01, 3.0), st.integers(0, 2**32 - 1))
def test_sphere_stream_read_to_the_end_is_sphere_sample(n, dim, p, budget, r, seed):
    omega = random_measure(np.random.default_rng(seed), n, dim, box=2.0, min_atoms=n)
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    listed = _read_all(lambda: sphere_sample(omega, r, p, budget, rngs[0]))
    ot_exact._memo.clear()  # the stream solves afresh, not from the list's memo entries
    streamed = _read_all(lambda: sphere_candidates(omega, r, p, budget, rngs[1]))
    if isinstance(listed, str):
        assert streamed == listed
    else:
        assert len(streamed) == len(listed)
        for (x, cert), (y, cert_y) in zip(listed, streamed):
            assert x.support.tobytes() == y.support.tobytes()
            assert x.weights.tobytes() == y.weights.tobytes()
            assert cert == cert_y
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_sphere_stream_checks_its_arguments_before_any_solve(solves):
    for r, budget in ((1.0, 0), (0.0, 2), (math.nan, 2)):
        with pytest.raises(DomainError):
            sphere_candidates(dirac([0.0]), r, 2.0, budget)
    assert not solves


@pytest.mark.parametrize("budget", [0, 2.5, math.nan, math.inf, 10**6 + 1, 1e18])
def test_sphere_sample_refuses_a_budget_that_is_no_whole_number_of_at_least_1(budget, solves):
    # unchecked, nan keeps no sample, inf and 1e18 never stop and 2.5 keeps 3
    omega = validate_measure([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]], [0.5, 0.3, 0.2])
    with pytest.raises(DomainError, match="budget"):
        sphere_sample(omega, 1.0, 2.0, budget=budget, rng=0)
    assert not solves


def test_check_count_takes_whole_numbers_from_1_to_max_count():
    top = wgeom.MAX_COUNT
    assert [wgeom.check_count(n, "n") for n in (1, 8.0, top, float(top))] == [1, 8, top, top]
    for n in (top + 1, 1e18, 10**400):
        with pytest.raises(DomainError, match=f"must be a whole number from 1 to {top}"):
            wgeom.check_count(n, "n")


def test_sphere_sample_failure_is_reported(monkeypatch):
    omega = dirac([0.0])
    # a generator whose proposals all stay at the centre, far below the band
    monkeypatch.setattr(wgeom, "_SPHERE_GENERATORS",
                        (lambda omega, r, p, rng: (omega, 0.0),))
    with pytest.raises(SphereSamplingFailed, match="after 9 attempts"):
        sphere_sample(omega, 1.0, 2.0, budget=2, rng=0)
    with pytest.raises(DomainError):
        sphere_sample(omega, -1.0, 2.0)


def test_cs_diagnostic_ray_sequence_passes():
    omega = validate_measure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    U = lift(BusemannField(np.array([1.0, 0.0])), 2.0)
    ray = lifted_ray(U, omega)
    rep = cs_diagnostic(lambda n: ray.eval(float(2 * n)), sigma=1.0,
                        omega0=omega, N=8, eps=0.1, K=4, p=2.0)
    assert rep["verdict"] == "PASS"
    assert rep["min_offdiag"] <= 1e-10


def test_cs_diagnostic_escaping_diracs_pass():
    # four repeating escape directions: the sphere cuts cluster four-fold
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            np.array([-1.0, 0.0]), np.array([0.0, -1.0])]

    def seq(n):
        return dirac((5.0 + 5.0 * n) * dirs[n % 4])

    rep = cs_diagnostic(seq, sigma=1.0, omega0=dirac([0.0, 0.0]),
                        N=24, eps=0.1, K=5, p=2.0)
    assert rep["verdict"] == "PASS"


def test_cs_diagnostic_choice_independence_smoke():
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            np.array([-1.0, 0.0]), np.array([0.0, -1.0])]

    def seq(n):
        return dirac((50.0 + 10.0 * n) * dirs[n % 4])

    verdicts = set()
    for omega0 in (dirac([0.0, 0.0]), dirac([0.0, 0.5])):
        for sigma in (0.5, 1.0, 2.0):
            rep = cs_diagnostic(seq, sigma, omega0, N=24, eps=0.1, K=5, p=2.0)
            verdicts.add(rep["verdict"])
    assert verdicts == {"PASS"}


def test_cs_diagnostic_escaping_mixture_fails():
    rep = cs_diagnostic(lambda k: escaping_mixture(k + 2, 2.0), sigma=1.0,
                        omega0=dirac([0.0]), N=20, eps=0.05, K=4, p=2.0)
    assert rep["verdict"] == "FAIL"
    assert rep["min_offdiag"] > 0.05


def test_cs_diagnostic_errors():
    with pytest.raises(SequenceTooClose):
        cs_diagnostic(lambda n: escaping_mixture(n, 2.0), sigma=1.0,
                      omega0=dirac([0.0]), N=5, eps=0.1, K=3, p=2.0)
    with pytest.raises(DomainError):
        cs_diagnostic(lambda n: escaping_mixture(n + 2, 2.0), sigma=1.0,
                      omega0=dirac([0.0]), N=2, eps=0.1, K=3, p=2.0)

    def never(n):
        raise AssertionError("the sequence was read")
    # N=4.5 once raised a bare TypeError, K=2.5 passed and eps=nan gave FAIL
    for bad in ({"N": 4.5}, {"N": math.nan}, {"K": 2.5}, {"K": math.inf},
                {"eps": math.nan}, {"eps": -0.1}):
        with pytest.raises(DomainError):
            cs_diagnostic(never, sigma=1.0, omega0=dirac([0.0]), p=2.0,
                          **{"N": 6, "K": 3, "eps": 0.1, **bad})


def test_dlc_limit_matches_busemann_on_rays():
    omega = validate_measure([[0.0, 0.1], [0.3, -0.1]], [0.5, 0.5])
    U = lift(BusemannField(np.array([1.0, 0.0])), 2.0)
    ray = lifted_ray(U, omega)
    seq = MeasureSetSequence(lambda n: [ray.eval(float(n))], lambda n: float(n))
    tol = 1e-6
    value, converged, samples = dlc_limit(seq, omega, 2.0, tol=tol, n_max=2**14)
    ref = busemann_estimate(ray, omega, tol=tol, t_max=2.0**14)
    assert abs(value - ref.value) <= 2 * tol
    assert converged


def test_dlc_limit_escaping_family_at_delta1():
    seq = MeasureSetSequence(lambda n: [escaping_mixture(n, 2.0)], lambda n: float(n))
    value, _, samples = dlc_limit(seq, dirac([1.0]), 2.0, tol=1e-4, n_max=100)
    n_last, a_last = samples[-1]
    assert n_last == 100
    assert abs(a_last - (math.sqrt(100.0**2 - 1.0) - 100.0)) <= 1e-10
    assert abs(a_last) <= 0.01


def test_dlc_limit_constant_family():
    omega = dirac([2.0])
    seq = MeasureSetSequence(lambda n: [omega], lambda n: 0.0)
    value, converged, samples = dlc_limit(seq, omega, 2.0, tol=1e-9, n_max=16)
    assert value == 0.0 and converged
    assert all(a == 0.0 for _, a in samples)


def test_dlc_limit_errors():
    omega = dirac([0.0])
    empty = MeasureSetSequence(lambda n: [], lambda n: 0.0)
    with pytest.raises(EmptyCollection):
        dlc_limit(empty, omega, 2.0)
    seq = MeasureSetSequence(lambda n: [omega], lambda n: 0.0)
    with pytest.raises(DomainError):
        dlc_limit(seq, omega, 2.0, n_max=1)
    for n_max in (math.nan, math.inf, 16.5, "16"):  # nan once raised a bare IndexError
        with pytest.raises(DomainError, match="n_max"):
            dlc_limit(seq, omega, 2.0, n_max=n_max)
    assert dlc_limit(seq, omega, 2.0, n_max=16.0) == dlc_limit(seq, omega, 2.0, n_max=16)
    for tol in (math.nan, -1.0, 0.0):  # unchecked, these ran to n_max unconverged
        with pytest.raises(DomainError, match="tolerance"):
            dlc_limit(seq, omega, 2.0, tol=tol)


def test_path_eval_at_arc_length():
    path = displacement_path(dirac([0.0]), dirac([4.0]), 2.0)
    assert path.eval(1.0).support[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_eval_refuses_a_non_finite_time(t):
    mu = validate_measure([[0.0], [2.0]], [0.5, 0.5])
    nu = validate_measure([[1.0], [3.0]], [0.5, 0.5])
    # a degenerate path once returned its source at nan
    for path in (displacement_path(mu, nu, 2.0), displacement_path(mu, mu, 2.0)):
        with pytest.raises(DomainError, match="t="):
            path.eval(t)
    with pytest.raises(DomainError, match="t="):
        dirac_ray([0.0], [1.0], 2.0).eval(t)


def test_every_ray_construction_refuses_count_dimension_and_speed():
    base = validate_measure([[0.0], [1.0]], [0.5, 0.5])
    e1 = np.array([1.0])
    with pytest.raises(InvalidRay):
        WassersteinRay(base, np.ones((3, 1)), 2.0)
    with pytest.raises(DimensionError):
        WassersteinRay(base, np.array([[1.0, 0.0]] * 2), 2.0)
    with pytest.raises(InvalidRay):
        WassersteinRay(base, np.array([[1.0], [math.nan]]), 2.0)
    with pytest.raises(InvalidRay):  # refused, not renormalized as dirac_ray does
        WassersteinRay(base, np.array([[1.0], [1.0 + 5e-10]]), 2.0)
    with pytest.raises(DimensionError):
        dirac_ray([0.0], [1.0, 0.0], 2.0)
    with pytest.raises(DomainError):
        dirac_ray([0.0], [1.1], 2.0)
    with pytest.raises(DimensionError):
        lifted_ray(lift(BusemannField(np.array([1.0, 0.0])), 2.0), base)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -0.1])
def test_a_ray_refuses_a_negative_or_non_finite_time(t):
    base = validate_measure([[0.0], [1.0]], [0.5, 0.5])
    for ray in (dirac_ray([0.0], [1.0], 2.0), lifted_ray(lift(BusemannField([1.0])), base)):
        with pytest.raises(DomainError, match="t="):
            ray.rows(t)


def test_a_ray_moves_each_atom_of_its_base_along_its_direction():
    base = validate_measure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    ray = WassersteinRay(base, np.array([[1.0, 0.0], [0.0, -1.0]]), 2.0)
    assert np.array_equal(ray.rows(0.0), base.support)
    assert np.array_equal(ray.rows(5.0), [[5.0, 0.0], [1.0, -5.0]])
    assert np.array_equal(dirac_ray([1.0], [-1.0]).eval(3.0).support, [[-2.0]])


def _one_row_direction(u):
    """x -> u's `descent_rays` on the one row x."""
    return lambda x: u.descent_rays(x[None, :])[0]


@st.composite
def _lifted_case(draw):
    """A measure of 1-6 atoms in R^d, d <= 3, and a base field with global rays.

    The field is a minimum of 1-4 Busemann fields or a single-anchor distance
    field, sometimes behind a `CustomField` whose `direction_fn` is the field's
    `descent_rays` on one row. An atom at the origin, grid coordinates, signed axis
    directions and offsets in {0, 1} plant exact ties between members; an
    anchor drawn from the atoms
    puts an atom on it. Returns the measure, the field to lift and the field
    whose definition gives the expected rays.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 6))
    coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))
    pts = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                 min_size=n, max_size=n)))
    if draw(st.booleans()):  # at the origin every member's value is its offset
        pts[0] = 0.0
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    omega = validate_measure(pts, w / w.sum())
    if draw(st.booleans()):
        anchor = pts[draw(st.integers(0, n - 1))] if draw(st.booleans()) else \
            np.array(draw(st.lists(coord, min_size=d, max_size=d)))
        u = DistanceField(anchor[None, :])
    else:
        members = []
        for _ in range(draw(st.integers(1, 4))):
            v = np.zeros(d)
            if draw(st.booleans()):
                v[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 1.0]))
            else:
                v += draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
                v = v / np.linalg.norm(v) if np.linalg.norm(v) > 0.1 else np.eye(d)[0]
            offset = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-2.0, 2.0)))
            members.append(BusemannField(v, offset))
        u = MinField(members)
    lifted = CustomField(u.evaluate, dim=d, direction_fn=_one_row_direction(u)) \
        if draw(st.booleans()) else u
    return omega, lifted, u


def _expected_direction(u, x):
    """Descent direction at x from the definition: lowest-index minimizer, or away from the anchor."""
    if isinstance(u, DistanceField):
        away = x - u.points[0]
        dist = np.linalg.norm(away)
        return np.eye(x.shape[0])[0] if dist <= UNIT_TOL else away / dist
    members = u.fields if isinstance(u, MinField) else (u,)
    values = [f.evaluate(x) for f in members]
    return members[values.index(min(values))].direction


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_lifted_case(), st.sampled_from([1.0, 2.0, 3.0]))
def test_lifted_rays_match_their_definition(case, p):
    omega, lifted, u = case
    U = lift(lifted, p)
    ray = lifted_ray(U, omega)
    assert np.array_equal(ray.rows(0.0), omega.support)
    for x, direction in zip(omega.support, ray.directions):
        assert np.allclose(direction, _expected_direction(u, x), rtol=0.0, atol=1e-15)
    for t in (0.5, 3.0):
        moved = ray.eval(t)
        assert abs(U.evaluate(omega) - U.evaluate(moved) - t) <= 1e-9
        assert abs(wasserstein_exact(omega, moved, p).value - t) <= 1e-8


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_lifted_case(), st.sampled_from([1.0, 2.0, 3.0]))
def test_a_lifted_base_point_has_the_bits_of_the_field_and_its_ray(case, p):
    omega, lifted, _ = case
    U = lift(lifted, p)
    point = U.at(omega)
    assert point.value == U.evaluate(omega)
    ray = lifted_ray(U, omega)
    assert ray.base is omega
    assert point.directions.tobytes() == ray.directions.tobytes()


def test_a_lifted_minimum_asks_only_its_picked_members_for_rays():
    # a multi-anchor distance field has no global ray; it is asked only where it
    # attains the minimum, and a tie goes to the lower index
    base = MinField((BusemannField(np.array([1.0])),
                     DistanceField(np.array([[-10.0], [10.0]]), sign=-1)))
    U = lift(base, 2.0)
    away = validate_measure([[5.0], [7.0]], [0.5, 0.5])  # -x <= -distance, a tie at 5
    assert np.array_equal(U.at(away).directions, [[1.0], [1.0]])
    near = validate_measure([[1.0], [7.0]], [0.5, 0.5])  # -9 at 1 is the distance's
    for build in (lambda: U.at(near).directions, lambda: lifted_ray(U, near)):
        with pytest.raises(UnsupportedField):
            build()


_BRACKETS = settings(max_examples=80, deadline=None, derandomize=True)
_BRACKET_P = st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0])


def _inside(lo, w, hi):
    """lo <= w <= hi up to 1e-12 relative."""
    return lo <= w * (1.0 + 1e-12) and w <= hi * (1.0 + 1e-12)


@_BRACKETS
@given(st.integers(1, 12), st.integers(1, 3), _BRACKET_P, st.floats(-3.0, 3.0),
       st.sampled_from([0.0, 1e-3, 1.0]), st.integers(0, 2**32 - 1))
def test_shift_bracket_holds_the_solved_distance(n, dim, p, log_scale, spread, seed):
    # a rigid translation (spread 0) and per-atom shifts around one
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    omega = random_measure(rng, n, dim, box=scale, min_atoms=n)
    u = rng.normal(size=dim)
    moves = u / np.linalg.norm(u) + spread * rng.normal(size=omega.support.shape)
    rows = omega.support + scale * rng.uniform(0.01, 1.0) * moves
    x = validate_measure(rows, omega.weights)
    assume(x.n_atoms == omega.n_atoms)
    lo, hi = wgeom.shift_bracket(omega, rows, p)
    assert _inside(lo, wasserstein_exact(omega, x, p).value, hi)
    if spread == 0.0:
        assert hi - lo <= wgeom.BRACKET_TOL * hi


@_BRACKETS
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3), _BRACKET_P,
       st.floats(-3.0, 3.0), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_cut_brackets_hold_both_solved_distances(n, m, dim, p, log_scale, frac, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    omega = random_measure(rng, n, dim, box=scale, min_atoms=n)
    target = random_measure(rng, m, dim, box=scale, min_atoms=m)
    path = displacement_path(omega, target, p)
    x, (lo, hi), (lo_far, hi_far) = path.cut(frac * path.length)
    assume(x.n_atoms == path.masses.shape[0])
    assert _inside(lo, wasserstein_exact(omega, x, p).value, hi)
    assert _inside(lo_far, wasserstein_exact(x, target, p).value, hi_far)


def _nearest_other(omega) -> np.ndarray:
    """Each atom's distance to its nearest other atom (inf for a Dirac)."""
    gaps = np.linalg.norm(omega.support[:, None, :] - omega.support[None, :, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    return gaps.min(axis=1)


@_BRACKETS
@given(st.integers(1, 12), st.integers(1, 3), _BRACKET_P, st.floats(-3.0, 3.0),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_separated_shifts_are_certified_at_the_solved_distance(n, dim, p, log_scale, one, seed):
    # every atom moves by at most half its distance to the nearest other atom, so
    # |D_k| + |D_j| <= |omega_k - omega_j|; or one atom moves by up to that whole distance
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    omega = random_measure(rng, n, dim, box=scale, min_atoms=n)
    room = np.minimum(_nearest_other(omega), scale)
    u = rng.normal(size=omega.support.shape)
    u /= np.linalg.norm(u, axis=1)[:, None]
    lengths = rng.uniform(0.01, 1.0, size=n) * room
    if one:
        lengths = np.where(np.arange(n) == rng.integers(n), 2.0 * lengths, 0.0)
    rows = omega.support + 0.5 * lengths[:, None] * u
    lo, hi = wgeom.shift_bracket(omega, rows, p)
    assert hi - lo <= wgeom.BRACKET_TOL * hi
    x, cert = wgeom.shifted_measure(omega, rows, p)
    assert x.n_atoms == n
    assert abs(cert - wasserstein_exact(omega, x, p).value) <= 1e-12 * cert


@st.composite
def _proven_base(draw, dim):
    """A built-in base field with global descent rays: a minimum of 1-3 Busemann
    fields, or the negative distance to one anchor."""
    if draw(st.booleans()):
        return DistanceField(np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim,
                                                    max_size=dim))), sign=-1)
    unit = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).map(np.array).filter(
        lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))
    return MinField([BusemannField(draw(unit), draw(st.floats(-1.0, 1.0)))
                     for _ in range(draw(st.integers(1, 3)))])


@_BRACKETS
@given(st.integers(1, 12), st.integers(1, 3), _BRACKET_P, st.floats(-3.0, 3.0),
       st.floats(0.01, 2.0), st.data(), st.integers(0, 2**32 - 1))
def test_a_proven_base_never_drops_beyond_the_solved_distance(n, dim, p, log_scale, frac,
                                                             data, seed):
    # the Kantorovich-Rubinstein end lets the lifted candidate skip its solve,
    # so the drop it certifies must stay within the solver's distance
    scale = 10.0 ** log_scale
    base = data.draw(_proven_base(dim))
    if isinstance(base, DistanceField):
        base = DistanceField(scale * base.points, sign=-1)
    else:
        base = MinField([BusemannField(f.direction, scale * f.offset)
                         for f in getattr(base, "fields", (base,))])
    U = lift(base, p)
    omega = random_measure(np.random.default_rng(seed), n, dim, box=scale, min_atoms=n)
    x, cert, value = U.at(omega).candidate(frac * scale)
    solved = wasserstein_exact(omega, x, p).value
    assert U.evaluate(omega) - value <= solved + 1e-12 * max(1.0, scale)
    assert abs(cert - solved) <= 1e-12 * solved


def test_separation_needs_both_shifts_within_the_gap(solves):
    # 1/2 d0 + 1/2 d1 with each atom moved 0.9 toward the other: each shift is
    # shorter than the gap 1, but the two together are not, and swapping the
    # pairing costs 0.1 where the identity costs 0.9
    omega = validate_measure([[0.0], [1.0]], [0.5, 0.5])
    rows = np.array([[0.9], [0.1]])
    assert wgeom.shift_bracket(omega, rows, 2.0) == (0.0, 0.9)
    x, cert = wgeom.shifted_measure(omega, rows, 2.0)
    assert cert == pytest.approx(brute_force_oracle(omega, x, 2.0).value) == pytest.approx(0.1)
    assert len(solves) == 1
    # moved by 0.5 and 0.4, together within the gap, the identity pairing is optimal
    solves.clear()
    lo, hi = wgeom.shift_bracket(omega, np.array([[0.5], [0.6]]), 1.0)
    assert lo == hi == 0.45 and not solves


def test_a_shift_bracket_is_never_taken_without_its_lower_end(solves):
    # moving the atom at 0 of 1/2 d0 + 1/2 d1 to 2: the identity pairing costs
    # sqrt(2), but 0 -> 1, 1 -> 2 costs 1, which only the lower end 1 admits
    omega = validate_measure([[0.0], [1.0]], [0.5, 0.5])
    rows = np.array([[2.0], [1.0]])
    assert wgeom.shift_bracket(omega, rows, 2.0) == (1.0, math.sqrt(2.0))
    x, cert = wgeom.shifted_measure(omega, rows, 2.0)
    assert cert == brute_force_oracle(omega, x, 2.0).value == 1.0
    assert len(solves) == 1


def test_merged_atoms_leave_a_cut_without_a_lower_end(solves):
    path = displacement_path(validate_measure([[0.0], [2.0]], [0.5, 0.5]), dirac([1.0]), 2.0)
    x, near, far = path.cut(path.length)
    assert x.n_atoms == 1 and near == (-math.inf, 1.0) and far == (-math.inf, 0.0)
    solves.clear()
    assert wgeom.certified_distance(path.source, x, 2.0, *near) == 1.0
    assert len(solves) == 1


def test_certified_distance_solves_what_a_bracket_cannot_stand_for(solves):
    omega = validate_measure([[0.0], [1.0]], [0.5, 0.5])
    x = omega.translate([0.5])
    assert wgeom.certified_distance(omega, x, 2.0, 0.5, 0.5) == 0.5 and not solves
    for lo, hi in ((0.4, 0.5), (0.5, math.inf)):  # wide, or overflowed
        assert wgeom.certified_distance(omega, x, 2.0, lo, hi) == 0.5
    assert len(solves) == 2
    # below VALUE_CLAMP the solver reports 0, so no sample lands on a tiny sphere
    with pytest.raises(SphereSamplingFailed):
        sphere_sample(omega, 1e-13, 2.0, budget=2, rng=0)
