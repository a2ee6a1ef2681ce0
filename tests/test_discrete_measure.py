import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wasslab.discrete_measure import (
    MERGE_TOL,
    DiscreteMeasure,
    MeasureSetSequence,
    dirac,
    p_moment,
    random_measure,
    validate_measure,
)
from wasslab.errors import (
    DomainError,
    EmptyMeasure,
    InvalidWeight,
    NotNormalized,
)


def test_duplicate_atoms_merge():
    m = validate_measure([[0.0], [0.0]], [0.5, 0.5])
    assert m.n_atoms == 1
    assert m.weights[0] == 1.0
    assert m.support[0, 0] == 0.0


def test_renormalization_within_tolerance():
    with pytest.warns(UserWarning, match="renormalizing"):
        m = validate_measure([[0.0], [1.0]], [0.3, 0.7000000001])
    assert abs(m.weights.sum() - 1.0) <= 1e-12


def test_weight_errors():
    with pytest.raises(InvalidWeight):
        validate_measure([[0.0], [1.0]], [-0.1, 1.1])
    with pytest.raises(NotNormalized):
        validate_measure([[0.0], [1.0]], [0.3, 0.3])
    with pytest.raises(EmptyMeasure):
        validate_measure(np.zeros((0, 1)), [])


def test_tiny_weights_pruned():
    m = validate_measure([[0.0], [1.0]], [1.0 - 1e-16, 1e-16])
    assert m.n_atoms == 1


def test_merge_is_transitive_across_the_sort():
    # sorted rows (0, 0), (1e-13, 5), (2e-13, 0): the first and the last are one atom
    m = validate_measure([[0.0, 0.0], [1e-13, 5.0], [2e-13, 0.0]], [0.4, 0.3, 0.3])
    assert m.support.tolist() == [[0.0, 0.0], [1e-13, 5.0]]
    assert m.weights.tolist() == [0.7, 0.3]


def test_merge_follows_a_chain_of_close_atoms():
    m = validate_measure([[1.8e-12], [0.0], [0.9e-12]], [0.5, 0.2, 0.3])
    assert m.support.tolist() == [[0.0]]
    assert m.weights.tolist() == [1.0]


@st.composite
def _clustered(draw):
    """Rows 0.45e-12 * k away from a few grid points, k in -2..2: exact
    duplicates, chains of close atoms and near misses in every coordinate.
    Returns the rows, their weights and a shuffle of the rows."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    centre = st.tuples(*[st.sampled_from([0.0, 1.0])] * d)
    offset = st.tuples(*[st.integers(-2, 2)] * d)
    rows = draw(st.lists(st.tuples(centre, offset), min_size=n, max_size=n))
    pts = np.array([c for c, _ in rows]) + 0.45e-12 * np.array([k for _, k in rows])
    w = np.array(draw(st.lists(st.integers(1, 20), min_size=n, max_size=n)), dtype=float)
    return pts, w / w.sum(), draw(st.permutations(range(n)))


def _groups(pts) -> list[list[int]]:
    """Connected groups of rows within MERGE_TOL in max norm, by an O(n^2) union-find."""
    parent = list(range(len(pts)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i
    for i in range(len(pts)):
        for j in range(i):
            if np.max(np.abs(pts[i] - pts[j])) <= MERGE_TOL:
                parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(pts)):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


_CLUSTERED = settings(max_examples=150, deadline=None, derandomize=True)


@_CLUSTERED
@given(_clustered())
def test_no_two_atoms_within_merge_tol(case):
    pts, w, _ = case
    m = validate_measure(pts, w)
    gaps = np.abs(m.support[:, None, :] - m.support[None, :, :]).max(axis=2)
    assert (gaps[~np.eye(m.n_atoms, dtype=bool)] > MERGE_TOL).all()


@_CLUSTERED
@given(_clustered())
def test_validating_a_canonical_measure_is_bit_identical(case):
    pts, w, _ = case
    m = validate_measure(pts, w)
    again = validate_measure(m.support, m.weights)
    assert np.array_equal(m.support, again.support)
    assert np.array_equal(m.weights, again.weights)


@_CLUSTERED
@given(_clustered())
def test_canonical_form_does_not_depend_on_row_order(case):
    pts, w, perm = case
    m = validate_measure(pts, w)
    shuffled = validate_measure(pts[list(perm)], w[list(perm)])
    assert np.array_equal(m.support, shuffled.support)
    assert np.abs(m.weights - shuffled.weights).max() <= 1e-15


@_CLUSTERED
@given(_clustered())
def test_each_atom_carries_the_weight_of_its_group(case):
    pts, w, _ = case
    m = validate_measure(pts, w)
    atoms = sorted((min(map(tuple, pts[g])), w[g].sum()) for g in _groups(pts))
    assert np.array_equal(m.support, np.array([lead for lead, _ in atoms]))
    assert np.abs(m.weights - [mass for _, mass in atoms]).max() <= 1e-15


def test_validate_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(30):
        raw_pts = rng.uniform(-5, 5, (6, 2))
        raw_pts[3] = raw_pts[0]  # force a merge
        w = rng.random(6)
        m1 = validate_measure(raw_pts, w / w.sum())
        m2 = validate_measure(m1.support, m1.weights)
        assert np.array_equal(m1.support, m2.support)
        assert np.array_equal(m1.weights, m2.weights)


def test_p_moment_examples():
    assert p_moment(dirac([3.0]), 2.0, [0.0]) == 9.0
    m = validate_measure([[0.0], [4.0]], [0.75, 0.25])  # escaping family at n=2, p=2
    assert abs(p_moment(m, 2.0, [0.0]) - 4.0) <= 1e-12
    assert p_moment(dirac([5.0, 1.0]), 3.0, [5.0, 1.0]) == 0.0
    # an exponent that is not a finite number >= 1 is refused, as by every W_p route
    half = validate_measure([[0.0], [1.0]], [0.5, 0.5])
    for p in (math.nan, math.inf, 0.5):
        with pytest.raises(DomainError):
            p_moment(half, p, [0.0])


def test_p_moment_diameter_bound():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_measure(rng, 8, 2)
        x0 = rng.uniform(-10, 10, 2)
        cloud = np.vstack([m.support, x0])
        diam = max(np.linalg.norm(a - b) for a in cloud for b in cloud)
        p = float(rng.uniform(1, 3))
        assert p_moment(m, p, x0) <= diam**p + 1e-9


def test_p_moment_translation_covariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = random_measure(rng, 6, 3)
        v = rng.uniform(-4, 4, 3)
        x0 = rng.uniform(-4, 4, 3)
        p = float(rng.uniform(1, 3))
        assert abs(p_moment(m.translate(v), p, x0 + v) - p_moment(m, p, x0)) <= 1e-10


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = random_measure(rng, 7, 3)
        text = json.dumps(m.to_json_dict())
        back = DiscreteMeasure.from_json_dict(json.loads(text))
        assert np.array_equal(m.support, back.support)
        assert np.array_equal(m.weights, back.weights)


def test_json_dim_mismatch():
    from wasslab.errors import DimensionError

    with pytest.raises(DimensionError):
        DiscreteMeasure.from_json_dict({"dim": 2, "support": [[0.0]], "weights": [1.0]})
    with pytest.raises(DimensionError):
        DiscreteMeasure.from_json_dict({"support": [[]], "weights": [1.0]})


def test_measure_set_sequence():
    seq = MeasureSetSequence(lambda n: [dirac([float(n)])], lambda n: float(n))
    assert seq.generator(3)[0].support[0, 0] == 3.0
    assert seq.shifts(3) == 3.0
