import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wasslab import ot_exact
from wasslab.discrete_measure import dirac, random_measure, validate_measure
from wasslab.errors import DimensionError, DomainError, InstanceTooLarge, NumericalInconsistency
from wasslab.ot_exact import (
    brute_force_oracle,
    dual_floor,
    wasserstein_1d_oracle,
    wasserstein_exact,
)
from wasslab.scenarios import escaping_mixture

TWO_BY_TWO = (
    validate_measure([[0.0], [2.0]], [0.5, 0.5]),
    validate_measure([[1.0], [3.0]], [0.5, 0.5]),
)


def northwest_2x2():
    """Rows, cols and flows of the northwest plan between two uniform 2-atom measures."""
    return np.array([0, 1, 1]), np.array([0, 0, 1]), np.array([0.5, 0.0, 0.5])


def test_dirac_pair():
    assert wasserstein_exact(dirac([0.0]), dirac([3.0]), 2.0).value == 3.0


def test_two_by_two_w1():
    # enumeration oracle: permutation costs are 1 (monotone) and 2 (crossed)
    mu, nu = TWO_BY_TWO
    assert abs(wasserstein_exact(mu, nu, 1.0).value - 1.0) <= 1e-12
    assert abs(brute_force_oracle(mu, nu, 1.0).value - 1.0) <= 1e-12


def test_escaping_mixture_distance():
    res = wasserstein_exact(escaping_mixture(5, 2.0), dirac([0.0]), 2.0)
    assert abs(res.value - 5.0) <= 1e-9


def test_1d_oracle_examples():
    assert wasserstein_1d_oracle(dirac([0.0]), dirac([3.0]), 1.0).value == 3.0
    mu, nu = TWO_BY_TWO
    assert abs(wasserstein_1d_oracle(mu, nu, 1.0).value - 1.0) <= 1e-12
    rng = np.random.default_rng(0)
    m = random_measure(rng, 9, 1)
    assert wasserstein_1d_oracle(m, m, 2.0).value == 0.0


def test_1d_plan_is_monotone():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mu = random_measure(rng, 10, 1)
        nu = random_measure(rng, 10, 1)
        plan = wasserstein_1d_oracle(mu, nu, 2.0).plan
        x = mu.support[plan.rows, 0]
        y = nu.support[plan.cols, 0]
        order = np.lexsort((y, x))
        assert np.all(np.diff(x[order]) >= 0)
        assert np.all(np.diff(y[order]) >= -1e-15)


def test_brute_force_examples():
    mu, nu = TWO_BY_TWO
    assert abs(brute_force_oracle(mu, nu, 1.0).value - 1.0) <= 1e-12
    # Dirac source: the unique product plan
    nu2 = validate_measure([[1.0], [4.0]], [0.25, 0.75])
    res = brute_force_oracle(dirac([0.0]), nu2, 2.0)
    assert abs(res.value - math.sqrt(0.25 * 1.0 + 0.75 * 16.0)) <= 1e-12
    # identity instance
    rng = np.random.default_rng(2)
    m = random_measure(rng, 4, 2)
    assert brute_force_oracle(m, m, 2.0).value == 0.0
    with pytest.raises(InstanceTooLarge):
        brute_force_oracle(random_measure(rng, 8, 1, min_atoms=8),
                           random_measure(rng, 8, 1, min_atoms=8), 2.0)
    # n + m = 10 is the largest enumerated support; one atom more is refused
    mu = random_measure(rng, 2, 2, min_atoms=2)
    nu = random_measure(rng, 8, 2, min_atoms=8)
    ref = wasserstein_exact(mu, nu, 2.0).value
    assert abs(brute_force_oracle(mu, nu, 2.0).value - ref) <= 1e-9
    with pytest.raises(InstanceTooLarge):
        brute_force_oracle(random_measure(rng, 3, 2, min_atoms=3), nu, 2.0)


def test_brute_force_calls_no_simplex_code(monkeypatch):
    rng = np.random.default_rng(3)
    mu = random_measure(rng, 3, 2, min_atoms=3)
    nu = random_measure(rng, 4, 2, min_atoms=4)
    before = brute_force_oracle(mu, nu, 2.0).value

    def forbidden(*args):
        raise AssertionError("the enumeration oracle called into the simplex")
    for name in ("_simplex_basis", "_certify"):
        monkeypatch.setattr(ot_exact, name, forbidden)
    assert abs(brute_force_oracle(mu, nu, 2.0).value - before) <= 1e-12


def test_brute_force_raises_when_every_vertex_cost_overflows():
    # 2000**120 overflows, so every vertex costs inf or nan (0 * inf)
    mu = validate_measure([[0.0], [1.0]], [0.3, 0.7])
    nu = validate_measure([[2000.0], [2002.5], [2010.0]], [0.2, 0.5, 0.3])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalInconsistency, match="finite cost"):
        brute_force_oracle(mu, nu, 120.0)


def test_error_contracts():
    with pytest.raises(DimensionError):
        wasserstein_exact(dirac([0.0]), dirac([0.0, 0.0]), 2.0)
    with pytest.raises(DomainError):
        wasserstein_exact(dirac([0.0]), dirac([1.0]), 0.5)
    with pytest.raises(DimensionError):
        wasserstein_1d_oracle(dirac([0.0, 0.0]), dirac([1.0, 1.0]), 2.0)
    # an exponent that is not a finite number >= 1 is refused by every route
    mu, nu = TWO_BY_TWO
    for p in (math.nan, math.inf, -math.inf):
        for route in (wasserstein_exact, wasserstein_1d_oracle, brute_force_oracle):
            with pytest.raises(DomainError):
                route(mu, nu, p)
    assert not ot_exact._memo


def test_metric_axioms_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        mu = random_measure(rng, 12, d)
        nu = random_measure(rng, 12, d)
        rho = random_measure(rng, 12, d)
        ab = wasserstein_exact(mu, nu, p).value
        ba = wasserstein_exact(nu, mu, p).value
        assert abs(ab - ba) <= 1e-9
        ac = wasserstein_exact(mu, rho, p).value
        cb = wasserstein_exact(rho, nu, p).value
        assert ac <= ab + cb + 1e-9
        assert wasserstein_exact(mu, mu, p).value <= 1e-12


def test_translation_exactness():
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        m = random_measure(rng, 8, d)
        v = rng.uniform(-5, 5, d)
        p = float(rng.choice([1.0, 2.0, 3.0]))
        assert abs(wasserstein_exact(m, m.translate(v), p).value
                   - np.linalg.norm(v)) <= 1e-10


def test_monotone_in_exponent():
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        mu = random_measure(rng, 8, d)
        nu = random_measure(rng, 8, d)
        values = [wasserstein_exact(mu, nu, p).value for p in (1.0, 2.0, 3.0)]
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9


def test_oracle_agreement_1d():
    rng = np.random.default_rng(6)
    for k in range(60):
        p = (1.0, 2.0, 3.0)[k % 3]
        mu = random_measure(rng, 20, 1)
        nu = random_measure(rng, 20, 1)
        assert abs(wasserstein_exact(mu, nu, p).value
                   - wasserstein_1d_oracle(mu, nu, p).value) <= 1e-9


def test_oracle_agreement_tiny():
    rng = np.random.default_rng(7)
    for k in range(30):
        p = (1.0, 2.0, 3.0)[k % 3]
        d = int(rng.integers(1, 4))
        if k % 2 == 0:
            n = int(rng.integers(2, 7))
            mu = validate_measure(rng.uniform(-5, 5, (n, d)), np.full(n, 1.0 / n))
            nu = validate_measure(rng.uniform(-5, 5, (n, d)), np.full(n, 1.0 / n))
        else:
            mu = random_measure(rng, 4, d)
            nu = random_measure(rng, 5, d)
        ref = brute_force_oracle(mu, nu, p)
        assert abs(wasserstein_exact(mu, nu, p).value - ref.value) <= 1e-9
        assert ref.plan.n_entries <= mu.n_atoms + nu.n_atoms - 1
        ref.plan.validate()


def test_degenerate_marginals_do_not_stall():
    # uniform weights force prefix-sum ties, so many pivots are degenerate;
    # the strongly feasible tree must still reach an exact optimal vertex
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        mu = validate_measure(rng.uniform(-5, 5, (n, 2)), np.full(n, 1.0 / n))
        nu = validate_measure(rng.uniform(-5, 5, (n, 2)), np.full(n, 1.0 / n))
        res = wasserstein_exact(mu, nu, 2.0)
        ref = brute_force_oracle(mu, nu, 2.0)
        assert abs(res.value - ref.value) <= 1e-9
        res.plan.validate()


def test_last_bit_weight_totals_are_certified_and_match_enumeration():
    # both totals are kept (within SUM_KEEP_TOL) and differ by 4e-13, so the
    # northwest pass runs out of the last row before it reaches the last column
    mu = validate_measure([[0, 0], [1, 0]], [0.5, 0.5 - 5e-13])
    nu = validate_measure([[0, 1], [1, 1], [2, 1]], [0.5, 0.5 - 5e-13, 4e-13])
    assert nu.n_atoms == 3 and mu.weights.sum() < nu.weights.sum()
    for p in (1.0, 2.0):
        res = wasserstein_exact(mu, nu, p)  # raises unless certified
        assert abs(res.value - brute_force_oracle(mu, nu, p).value) <= 1e-9
        res.plan.validate()


@st.composite
def _same_weight_pair(draw):
    """A grid measure and a translate or one-atom shift of it: both keep its weights.

    These are the candidates the slope verdicts compare a measure with;
    equal weights make most of their pivots degenerate.
    """
    uniform = draw(st.booleans())
    # the oracle checks permutations on uniform weights, every basis otherwise
    n = draw(st.integers(2, 5 if uniform else 4))
    x = np.array(draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               min_size=n, max_size=n, unique=True)), dtype=float)
    w = np.full(n, 1.0 / n) if uniform else np.array(
        draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    shift = np.array(draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2))), dtype=float)
    y = x + shift
    if draw(st.booleans()):  # shift one atom only, unless it lands on another
        y = x.copy()
        k = draw(st.integers(0, n - 1))
        if not any((row == x[k] + shift).all() for row in x):
            y[k] += shift
    return validate_measure(x, w / w.sum()), validate_measure(y, w / w.sum())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_same_weight_pair(), st.sampled_from([1.0, 2.0, 3.0]))
def test_same_weight_candidates_match_enumeration(pair, p):
    mu, nu = pair
    res = wasserstein_exact(mu, nu, p)
    assert abs(res.value - brute_force_oracle(mu, nu, p).value) <= 1e-9
    assert res.plan.n_entries <= mu.n_atoms + nu.n_atoms - 1
    res.plan.validate()


def test_simplex_plan_is_basic():
    rng = np.random.default_rng(9)
    for _ in range(20):
        mu = random_measure(rng, 10, 2)
        nu = random_measure(rng, 10, 2)
        res = wasserstein_exact(mu, nu, 2.0)
        assert res.plan.n_entries <= mu.n_atoms + nu.n_atoms - 1
        res.plan.validate()


def test_value_is_root_of_cost():
    rng = np.random.default_rng(10)
    for p in (1.0, 2.0, 3.0):
        mu = random_measure(rng, 6, 2)
        nu = random_measure(rng, 6, 2)
        res = wasserstein_exact(mu, nu, p)
        assert abs(res.value - res.cost ** (1.0 / p)) <= 1e-12


def test_kantorovich_rubinstein_bound():
    from wasslab.base_space import BusemannField, MinField
    from wasslab.measure_fields import lift

    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        U = lift(MinField((BusemannField(v), BusemannField(w, 0.4))), 1.0)
        mu = random_measure(rng, 8, d)
        nu = random_measure(rng, 8, d)
        gap = U.evaluate(mu) - U.evaluate(nu)
        assert gap <= wasserstein_exact(mu, nu, 1.0).value + 1e-9


def test_result_serialization_shape():
    mu, nu = TWO_BY_TWO
    doc = wasserstein_exact(mu, nu, 2.0).to_json_dict()
    assert set(doc) == {"value", "p", "solver", "plan"}
    assert doc["solver"] == "simplex"
    for entry in doc["plan"]:
        assert len(entry) == 3


@st.composite
def _uniform_grid_pair(draw):
    """Uniform weights on integer grid points: ties in weights and costs."""
    d = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        n = m = draw(st.integers(2, 7))  # permutation vertices
    else:
        # spanning-tree enumeration, kept to shapes it finishes in ~0.1 s:
        # n + m <= 8, or a 2-atom side with n + m <= 10
        n = draw(st.integers(2, 8))
        m = draw(st.integers(2, 8 if n == 2 else max(2, 8 - n)))
    point = st.tuples(*[st.integers(0, 7 if d == 1 else 3)] * d)
    x = draw(st.lists(point, min_size=n, max_size=n, unique=True))
    y = draw(st.lists(point, min_size=m, max_size=m, unique=True))
    return (validate_measure(np.array(x, dtype=float), np.full(n, 1.0 / n)),
            validate_measure(np.array(y, dtype=float), np.full(m, 1.0 / m)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_uniform_grid_pair())
def test_degenerate_grids_match_enumeration(pair):
    mu, nu = pair
    for p in (1.0, 2.0, 3.0):
        res = wasserstein_exact(mu, nu, p)
        assert abs(res.value - brute_force_oracle(mu, nu, p).value) <= 1e-9
        assert res.plan.n_entries <= mu.n_atoms + nu.n_atoms - 1
        res.plan.validate()


@st.composite
def _weighted_pair(draw):
    """Random atoms in d = 1..3 with non-uniform weights, 2..12 atoms a side."""
    d = draw(st.integers(1, 3))

    def measure(n):
        point = st.tuples(*[st.floats(-10.0, 10.0)] * d)
        x = draw(st.lists(point, min_size=n, max_size=n, unique=True))
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        return validate_measure(np.array(x), w / w.sum())
    return measure(draw(st.integers(2, 12))), measure(draw(st.integers(2, 12)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_weighted_pair(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_resolved_flows_match_both_marginals_and_come_sorted(pair, p):
    mu, nu = pair
    plan = wasserstein_exact(mu, nu, p).plan
    assert np.abs(plan.row_sums() - mu.weights).max() <= 1e-14
    assert np.abs(plan.col_sums() - nu.weights).max() <= 1e-14
    assert np.all(np.diff(plan.rows * nu.n_atoms + plan.cols) > 0)


@st.composite
def _weighted_line_pair(draw):
    """Distinct atoms on the line with non-uniform weights, 2..12 atoms a side."""
    def measure(n):
        x = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n, unique=True))
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        return validate_measure(np.array(x)[:, None], w / w.sum())
    return measure(draw(st.integers(2, 12))), measure(draw(st.integers(2, 12)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_weighted_line_pair(), st.sampled_from([1.5, 2.0, 3.0]))
def test_line_plan_is_the_quantile_coupling(pair, p):
    # |x-y|^p is strictly convex for p > 1, so the monotone coupling is the
    # only optimal plan; dense plans, as the oracle keeps sub-PRUNE_TOL cells
    mu, nu = pair
    plan = wasserstein_exact(mu, nu, p).plan.as_dense()
    assert np.abs(plan - wasserstein_1d_oracle(mu, nu, p).plan.as_dense()).max() <= 1e-14


@st.composite
def _planar_instance(draw):
    """Unit-scaled cost and weights of 2..12 distinct grid atoms a side, in d = 1 or 2.

    Uniform weights and grid distances make most pivots degenerate, which
    the strongly feasible leaving rule must get through; random weights make
    them mostly move mass. On the line the northwest start is optimal, so
    the first pricing returns it as built.
    """
    uniform = draw(st.booleans())
    p = draw(st.sampled_from([1.0, 2.0, 3.0]))
    grid = st.tuples(st.integers(0, 15)) if draw(st.booleans()) else st.tuples(
        st.integers(0, 3), st.integers(0, 3))

    def measure(n):
        x = draw(st.lists(grid, min_size=n, max_size=n, unique=True))
        w = np.full(n, 1.0) if uniform else np.array(
            draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        return validate_measure(np.array(x, dtype=float), w / w.sum())
    mu, nu = measure(draw(st.integers(2, 12))), measure(draw(st.integers(2, 12)))
    C = ot_exact._cost_matrix(ot_exact._distance_matrix(mu.support, nu.support), p)
    return C / C.max(), mu.weights, nu.weights


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_planar_instance())
def test_pivoted_basis_is_a_spanning_tree_with_tight_potentials(instance):
    Cs, a, b = instance
    n, m = Cs.shape
    rows, cols, flow, pot, slack = ot_exact._simplex_basis(Cs, a, b)
    u, v = np.array(pot[:n]), np.array(pot[n:])
    assert len(set(zip(rows, cols))) == len(rows) == n + m - 1
    reached, todo = {0}, [0]  # n+m-1 distinct cells reaching every node form a tree
    while todo:
        x = todo.pop()
        for i, j in zip(rows, cols):
            for s, t in ((i, n + j), (n + j, i)):
                if s == x and t not in reached:
                    reached.add(t)
                    todo.append(t)
    assert reached == set(range(n + m))
    assert np.abs(u[rows] + v[cols] - Cs[rows, cols]).max() <= 1e-12  # zero-flow cells too
    assert (Cs - u[:, None] - v[None, :]).min() >= -ot_exact._ENTER_TOL
    # the last pricing priced these potentials: its least reduced cost is the dual slack
    assert slack == (Cs - u[:, None] - v[None, :]).min()


def test_every_route_is_certified(monkeypatch):
    def refuse(*args):
        raise NumericalInconsistency("certificate refused")
    monkeypatch.setattr(ot_exact, "_certify", refuse)
    # the line, and in the plane a northwest start that is optimal as built and one that pivots
    as_built = (validate_measure([[0.0, 0.0], [2.0, 1.0]], [0.5, 0.5]),
                validate_measure([[0.0, 1.0], [2.0, 2.0]], [0.5, 0.5]))
    pivoting = (validate_measure([[0.0, 0.0], [1.0, 5.0]], [0.5, 0.5]),
                validate_measure([[0.0, 5.0], [1.0, 0.0]], [0.5, 0.5]))
    for mu, nu in (TWO_BY_TWO, as_built, pivoting):
        with pytest.raises(NumericalInconsistency, match="refused"):
            wasserstein_exact(mu, nu, 2.0)
    assert not ot_exact._memo


@st.composite
def _two_by_two_instance(draw):
    """Two 2-atom measures, some atoms of nu within DIST_CLAMP of an atom of mu.

    Supports are drawn in sorted order, so the drawn weights stay in place:
    tied weights meet the staircase's tie a_0 = b_0.
    """
    dim = draw(st.sampled_from([1, 2, 3]))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    scale = 10.0 ** draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["random", "uniform", "tied"]))

    def weights():
        x = 0.5 if kind == "uniform" else draw(st.floats(0.05, 0.95))
        return np.array([x, 1.0 - x])

    def support():
        pts = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim,
                                             max_size=2 * dim))).reshape(2, dim)
        return pts[np.lexsort(pts.T[::-1])]
    x, y = support(), support()
    if draw(st.booleans()):
        y[0] = x[draw(st.integers(0, 1))] + 4e-13 * draw(st.sampled_from([-1.0, 1.0]))
        y = y[np.lexsort(y.T[::-1])]
    a = weights()
    b = a if kind == "tied" else weights()
    return validate_measure(x, a), validate_measure(y, b), p


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_two_by_two_instance())
def test_two_by_two_route_is_the_simplex_bit_for_bit(instance):
    mu, nu, p = instance
    assume(mu.n_atoms == nu.n_atoms == 2)
    C = ot_exact._cost_matrix(ot_exact._distance_matrix(mu.support, nu.support), p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ot_exact, "_two_by_two", lambda *args: None)
        expected = ot_exact._solve(mu, nu, p)  # the simplex alone
    bases = []
    basis = ot_exact._simplex_basis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ot_exact, "_simplex_basis", lambda *args: bases.append(args) or basis(*args))
        res = ot_exact._solve(mu, nu, p)
    # a staircase that needs a pivot takes the simplex; one optimal as built never does
    assert bool(bases) == (ot_exact._two_by_two(C / C.max(), mu.weights, nu.weights) is None)
    assert [repr(x) for x in (res.value, res.cost, res.psi)] == [
        repr(x) for x in (expected.value, expected.cost, expected.psi)]
    for name in ("rows", "cols", "masses"):
        got, want = getattr(res.plan, name), getattr(expected.plan, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_two_by_two_instances_take_both_routes():
    line = TWO_BY_TWO
    crossed = (validate_measure([[0.0, 0.0], [1.0, 5.0]], [0.5, 0.5]),
               validate_measure([[0.0, 5.0], [1.0, 0.0]], [0.5, 0.5]))
    for (mu, nu), as_built in ((line, True), (crossed, False)):
        C = ot_exact._cost_matrix(ot_exact._distance_matrix(mu.support, nu.support), 2.0)
        assert (ot_exact._two_by_two(C / C.max(), mu.weights, nu.weights) is not None) == as_built


def test_line_prices_when_the_clamp_breaks_the_monotone_order():
    # x2 and y1 lie 5e-13 apart, which DIST_CLAMP zeroes; on the clamped cost
    # the northwest start is not optimal, so the solve pivots away from it
    mu = validate_measure([[0.0], [1e-11]], [0.5, 0.5])
    nu = validate_measure([[1.05e-11], [2e-11]], [0.5, 0.5])
    C = np.abs(mu.support - nu.support.T)
    C[C < ot_exact.DIST_CLAMP] = 0.0
    staircase = 0.5 * (C[0, 0] + C[1, 1])  # the tie closes row 0 on the diagonal
    assert ot_exact._two_by_two(C / C.max(), mu.weights, nu.weights) is None
    res = wasserstein_exact(mu, nu, 1.0)
    assert res.cost == pytest.approx(brute_force_oracle(mu, nu, 1.0).cost, rel=1e-12)
    assert res.cost < staircase


def test_line_500_atoms_matches_quantile_oracle():
    rng = np.random.default_rng(12)
    mu = validate_measure(rng.uniform(-10, 10, (500, 1)), np.full(500, 1.0 / 500))
    w = rng.random(500) + 0.05
    nu = validate_measure(rng.uniform(-10, 10, (500, 1)), w / w.sum())
    assert mu.n_atoms == nu.n_atoms == 500
    for p in (1.0, 2.0):
        res = wasserstein_exact(mu, nu, p)
        assert abs(res.value - wasserstein_1d_oracle(mu, nu, p).value) <= 1e-9


def _highs_cost(C, a, b):
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    n, m = C.shape
    A = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                       sparse.kron(np.ones((1, n)), sparse.eye(m))])
    lp = optimize.linprog(C.ravel(), A_eq=A, b_eq=np.concatenate([a, b]),
                          bounds=(0, None), method="highs")
    assert lp.status == 0
    return lp.fun


@pytest.mark.parametrize("n", [60, 100])
def test_certified_plans_in_the_plane(n):
    # the solve raises unless its potentials certify the plan optimal
    rng = np.random.default_rng(n)
    mu = random_measure(rng, n, 2, min_atoms=n)
    nu = random_measure(rng, n, 2, min_atoms=n)
    res = wasserstein_exact(mu, nu, 2.0)
    assert res.plan.n_entries <= 2 * n - 1
    res.plan.validate()
    C = np.sum((mu.support[:, None, :] - nu.support[None, :, :]) ** 2, axis=2)
    assert abs(res.cost - _highs_cost(C, mu.weights, nu.weights)) <= 1e-7 * C.max()


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_uniform_weights_at_size_match_highs(n, p):
    # equal weights make most pivots degenerate; the solve must not stall on them
    rng = np.random.default_rng(n)
    x, y = rng.random((n, 2)), rng.random((n, 2))
    mu = validate_measure(x, np.full(n, 1.0 / n))
    nu = validate_measure(y, np.full(n, 1.0 / n))
    res = wasserstein_exact(mu, nu, p)
    res.plan.validate()
    C = np.sqrt(np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)) ** p
    assert res.cost == pytest.approx(_highs_cost(C, mu.weights, nu.weights), rel=1e-12)


def test_certificate_rejects_a_non_optimal_basis(monkeypatch):
    # the northwest tree pairs (0,0)-(0,5) and (1,5)-(1,0); swapping is cheaper
    mu = validate_measure([[0.0, 0.0], [1.0, 5.0]], [0.5, 0.5])
    nu = validate_measure([[0.0, 5.0], [1.0, 0.0]], [0.5, 0.5])
    assert abs(wasserstein_exact(mu, nu, 1.0).value - 1.0) <= 1e-12

    # on a zero cost the northwest start is optimal, so the simplex returns it as built
    rows, cols, flow, _, _ = ot_exact._simplex_basis(np.zeros((2, 2)), mu.weights, nu.weights)
    assert [rows, cols, flow] == [x.tolist() for x in northwest_2x2()]

    def northwest_tree(C, a, b):
        v0 = C[0, 0]
        u1 = C[1, 0] - v0
        pot = [0.0, u1, v0, C[1, 1] - u1]  # tight on the tree's three cells
        R = C - np.array(pot[:2])[:, None] - np.array(pot[2:])[None, :]
        return (*(x.tolist() for x in northwest_2x2()), pot, R.min())
    monkeypatch.setattr(ot_exact, "_simplex_basis", northwest_tree)
    ot_exact._memo.clear()  # else the memo serves the first solve again
    with pytest.raises(NumericalInconsistency, match="certificate"):
        wasserstein_exact(mu, nu, 1.0)


def test_memo_serves_a_repeat_on_the_callers_measures(solve_calls):
    mu, nu = TWO_BY_TWO
    first = wasserstein_exact(mu, nu, 2.0)
    assert len(solve_calls) == 1
    twin = validate_measure(mu.support.copy(), mu.weights.copy())
    again = wasserstein_exact(twin, nu, 2)
    assert len(solve_calls) == 1
    assert (again.value, again.cost, again.solver) == (first.value, first.cost, first.solver)
    assert again.plan.plan_list() == first.plan.plan_list()
    assert again.plan.masses is first.plan.masses
    assert again.plan.source is twin and again.plan.target is nu
    assert again.p == 2
    wasserstein_exact(mu, nu, 3.0)
    wasserstein_exact(nu, mu, 2.0)
    assert len(solve_calls) == 3


def test_memo_plan_arrays_are_read_only():
    mu, nu = TWO_BY_TWO
    for res in (wasserstein_exact(mu, nu, 2.0), wasserstein_exact(mu, nu, 2.0),
                wasserstein_exact(dirac([0.0]), nu, 2.0)):
        for arr in (res.plan.rows, res.plan.cols, res.plan.masses):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_memo_holds_the_last_2048_solves(solve_calls):
    nu = validate_measure([[0.0], [1.0]], [0.5, 0.5])
    mus = [validate_measure([[k], [k + 0.5]], [0.5, 0.5])
           for k in range(ot_exact.MEMO_SIZE + 1)]
    for mu in mus:
        wasserstein_exact(mu, nu, 2.0)
    assert len(ot_exact._memo) == ot_exact.MEMO_SIZE == 2048
    assert len(solve_calls) == 2049
    wasserstein_exact(mus[-1], nu, 2.0)
    assert len(solve_calls) == 2049
    wasserstein_exact(mus[0], nu, 2.0)
    assert len(solve_calls) == 2050
    assert len(ot_exact._memo) == 2048


def test_memo_never_stores_a_raise(monkeypatch):
    mu = validate_measure([[0.0], [2.0]], [0.5, 0.5])
    nu = validate_measure([[1.0], [3.0], [5.0]], [0.25, 0.25, 0.5])
    for _ in range(2):
        with pytest.raises(DomainError):
            wasserstein_exact(mu, nu, 0.5)
    assert not ot_exact._memo
    basis = ot_exact._simplex_basis

    def non_optimal_tree(C, a, b):  # zero potentials: slack min(C) >= 0, but a duality gap
        rows, cols, flow, pot, _ = basis(C, a, b)
        return rows, cols, flow, [0.0] * len(pot), C.min()
    monkeypatch.setattr(ot_exact, "_simplex_basis", non_optimal_tree)
    for _ in range(2):
        with pytest.raises(NumericalInconsistency, match="certificate"):
            wasserstein_exact(mu, nu, 2.0)
    assert not ot_exact._memo


def test_memo_never_stores_a_refused_two_by_two(monkeypatch):
    # a 2x2 staircase that is optimal as built never reaches _simplex_basis, only _certify
    def refuse(*args):
        raise NumericalInconsistency("certificate refused")
    monkeypatch.setattr(ot_exact, "_certify", refuse)
    for _ in range(2):
        with pytest.raises(NumericalInconsistency, match="refused"):
            wasserstein_exact(*TWO_BY_TWO, 2.0)
    assert not ot_exact._memo


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3),
       st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0]), st.floats(-3.0, 3.0),
       st.integers(0, 2**32 - 1))
def test_lower_bound_sits_below_the_value_and_a_memo_hit_keeps_it(n, m, dim, p, log_scale, seed):
    # the dual floor of a solve's potentials at its own source is its value
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    mu = random_measure(rng, n, dim, box=scale, min_atoms=n)
    nu = random_measure(rng, m, dim, box=scale, min_atoms=m)
    res = wasserstein_exact(mu, nu, p)
    assert abs(dual_floor(mu, nu, res.psi, p) - res.value) <= 1e-12 * res.value
    again = wasserstein_exact(mu, nu, p)
    assert again.plan.masses is res.plan.masses  # served by the memo
    assert dual_floor(mu, nu, again.psi, p) == dual_floor(mu, nu, res.psi, p)
    assert again.psi is res.psi and len(res.psi) == nu.n_atoms
    if dim == 1:
        assert wasserstein_1d_oracle(mu, nu, p).psi is None
    if mu.n_atoms + nu.n_atoms <= 6:
        assert brute_force_oracle(mu, nu, p).psi is None


def test_results_stay_frozen_dataclasses():
    res = wasserstein_exact(*TWO_BY_TWO, 2.0)
    for obj, name in ((res, "value"), (res.plan, "masses")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    assert dataclasses.replace(res, solver="copy").psi == res.psi
    assert [f.name for f in dataclasses.fields(res)] == [
        "value", "cost", "plan", "solver", "p", "psi"]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 3),
       st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0]), st.floats(-3.0, 3.0), st.floats(-3.0, 12.0),
       st.floats(-1e3, 1e3), st.integers(0, 2**32 - 1))
def test_a_dual_floor_never_exceeds_the_value_whatever_the_potentials(n, m, dim, p, log_scale,
                                                                      log_psi, shift, seed):
    # weak duality holds for every psi: the solver's own, random, large and negative ones
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    x = random_measure(rng, n, dim, box=scale, min_atoms=n)
    nu = random_measure(rng, m, dim, box=scale, min_atoms=m)
    res = wasserstein_exact(random_measure(rng, n, dim, box=scale), nu, p)
    cost = wasserstein_exact(x, nu, p).cost
    unit = (4.0 * scale) ** p  # above every cost between the two boxes
    drawn = (rng.normal(size=nu.n_atoms) * 10.0 ** log_psi + shift) * unit
    for psi in (res.psi, tuple(drawn.tolist())):
        floor = dual_floor(x, nu, psi, p)
        slack = 1e-12 * (cost + unit + max(map(abs, psi)))
        assert floor == -math.inf or floor ** p <= cost + slack


def test_a_dual_floor_on_an_overflowed_cost_is_minus_infinity():
    # 2000**120 overflows: the solve's potentials are zeros and prove nothing
    mu = validate_measure([[0.0], [1.0]], [0.5, 0.5])
    nu = validate_measure([[2000.0], [2002.5]], [0.5, 0.5])
    with np.errstate(over="ignore", invalid="ignore"):
        psi = wasserstein_exact(mu, nu, 120.0).psi
        assert psi == (0.0, 0.0)
        for floor_psi in (psi, (1e300, -1e300), (3.0, -2.0)):
            assert dual_floor(mu, nu, floor_psi, 120.0) == -math.inf
