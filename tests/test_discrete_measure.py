import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wasslab import discrete_measure
from wasslab.cli import main
from wasslab.discrete_measure import (
    MERGE_TOL,
    PRUNE_TOL,
    SUM_FIX_TOL,
    SUM_KEEP_TOL,
    DiscreteMeasure,
    MeasureSetSequence,
    dirac,
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


@st.composite
def _apart(draw):
    """1-12 rows in d 1-3 whose first coordinates differ by more than MERGE_TOL,
    sorted by them, with their weights and a shuffle of the rows."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([1.5e-12, 1e-6, 1.0, 1e6]))
    firsts = sorted(draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n,
                                  unique=True)))
    coords = st.floats(-1e3, 1e3, allow_nan=False)
    rest = draw(st.lists(st.lists(coords, min_size=d - 1, max_size=d - 1),
                         min_size=n, max_size=n))
    pts = np.array([[k * scale] + r for k, r in zip(firsts, rest)])
    w = np.array(draw(st.lists(st.integers(1, 20), min_size=n, max_size=n)), dtype=float)
    return pts, w / w.sum(), draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_apart())
def test_sorted_rows_are_copied_with_the_bits_a_sort_gives(case):
    pts, w, perm = case
    sorts, lexsort = [], np.lexsort

    def counted(keys):
        sorts.append(keys)
        return lexsort(keys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrete_measure.np, "lexsort", counted)
        m = validate_measure(pts, w)
        assert not sorts  # rows already sorted and apart are not sorted again
        shuffled = validate_measure(pts[list(perm)], w[list(perm)])
    assert m.support.tobytes() == shuffled.support.tobytes() == pts.tobytes()
    assert m.weights.tobytes() == shuffled.weights.tobytes()
    assert m.support.shape == shuffled.support.shape == pts.shape
    for mine, theirs in ((m.support, pts), (m.weights, w)):
        assert not np.shares_memory(mine, theirs)
        assert not mine.flags.writeable and theirs.flags.writeable


def test_malformed_weights_and_supports_keep_their_error_classes(tmp_path, capsys):
    two = [[0.0], [1.0]]
    # the weights overflow a float sum: not normalized, as when numpy summed them to inf
    with pytest.raises(NotNormalized, match="inf"):
        validate_measure(two, [1e308, 1e308])
    with pytest.raises(InvalidWeight, match="finite"):
        validate_measure(two, [math.inf, -math.inf])
    for bad in ([math.nan, 1.0], [0.5, math.nan], [math.inf, 0.0]):
        with pytest.raises(InvalidWeight, match="finite"):
            validate_measure(two, bad)
    with pytest.raises(InvalidWeight, match="negative weight -0.5"):
        validate_measure([[0.0], [1.0], [2.0]], [-0.5, 1.0, 0.5])
    for bad in (math.nan, math.inf, -math.inf):
        for row in (0, 1):
            pts = [[0.0, 1.0], [2.0, 3.0]]
            pts[row][1 - row] = bad
            with pytest.raises(DomainError, match="non-finite"):
                validate_measure(pts, [0.5, 0.5])
    measures = tmp_path / "overflow.json"
    measures.write_text(json.dumps([{"support": two, "weights": [1e308, 1e308]},
                                    {"support": [[2.0]], "weights": [1.0]}]))
    assert main(["wp", str(measures)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _reduction_based(support, weights) -> DiscreteMeasure:
    """`validate_measure` as it was written with whole-array reductions, for comparison."""
    pts = discrete_measure._canonical_support(support)
    n = pts.shape[0]
    if n == 0:
        raise EmptyMeasure("measure needs at least one atom")
    if not math.isfinite(pts.sum()) and not np.isfinite(pts).all():
        raise DomainError("support has non-finite coordinates")
    w = np.asarray(weights, dtype=float).reshape(-1)
    total = float(w.sum())
    if not (math.isfinite(total) and w.min() >= 0.0):
        if not np.isfinite(w).all():
            raise InvalidWeight("weights must be finite")
        if (w < 0.0).any():
            raise InvalidWeight(f"negative weight {float(w.min())}")
    if abs(total - 1.0) > SUM_FIX_TOL + 1e-15:
        raise NotNormalized(f"weight sum {total}")
    if abs(total - 1.0) > SUM_KEEP_TOL:
        w = w / total
    if n > 1:
        order = np.lexsort(pts.T[::-1])
        pts, w = pts[order], w[order]
        x0 = pts[:, 0]
        gaps = x0[1:] - x0[:-1]
        if gaps.min() <= MERGE_TOL:
            pts, w = discrete_measure._merge_runs(pts, w, gaps <= MERGE_TOL)
    else:
        pts, w = pts.copy(), w.copy()
    if w.min() < PRUNE_TOL:
        keep = w >= PRUNE_TOL
        pts, w = pts[keep], w[keep]
        if pts.shape[0] == 0:
            raise EmptyMeasure("all atoms pruned; measure has no mass")
    total = float(w.sum())
    if abs(total - 1.0) > SUM_KEEP_TOL:
        w = w / total
    return DiscreteMeasure(pts, w)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_clustered(), st.lists(st.booleans(), min_size=8, max_size=8), st.integers(0, 2**16))
def test_normalized_inputs_come_out_as_the_reduction_based_version_gave(case, tiny, seed):
    # merge chains from the clustered rows, weights below PRUNE_TOL where `tiny` says,
    # and rows spread at random when the seed is odd
    pts, w, _ = case
    if seed % 2:
        pts = pts + np.random.default_rng(seed).uniform(-5.0, 5.0, size=pts.shape)
    w = np.where(tiny[:w.shape[0]], 1e-18 * w, w)
    w = w / w.sum()
    m, old = validate_measure(pts, w), _reduction_based(pts, w)
    assert m.support.tobytes() == old.support.tobytes()
    assert m.weights.tobytes() == old.weights.tobytes()


def test_measures_stay_frozen_dataclasses():
    m = validate_measure([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.support = None
    moved = dataclasses.replace(m, support=m.support + 1.0)
    assert moved.support.tolist() == [[1.0], [2.0]] and moved.weights is m.weights
    assert [f.name for f in dataclasses.fields(m)] == ["support", "weights"]


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
