import math

import numpy as np
import pytest

from wasslab.base_space import (
    BusemannField,
    CustomField,
    DistanceField,
    MinField,
    base_field_from_config,
)
from wasslab.errors import DimensionError, DomainError, EmptyCollection, UnsupportedField
from wasslab.wgeom import dirac_ray


def _custom_direction(v, x=None):
    """The descent direction at x (default the origin) of a field whose `direction_fn` gives v."""
    x = np.zeros((1, np.size(v))) if x is None else np.atleast_2d(x)
    return CustomField(lambda y: 0.0, dim=x.shape[1], direction_fn=lambda y: v).descent_rays(x)[0]


@pytest.mark.parametrize("make", [lambda v: dirac_ray(np.zeros(np.size(v)), v).directions[0],
                                  _custom_direction,
                                  lambda v: BusemannField(v).direction],
                         ids=["dirac_ray", "custom", "busemann"])
def test_a_ray_and_a_busemann_field_share_one_unit_vector_rule(make):
    assert make(1.0).tolist() == [1.0] and make(np.array([0.6, 0.8])).tolist() == [0.6, 0.8]
    assert abs(np.linalg.norm(make(np.array([0.0, 1.0 + 5e-10]))) - 1.0) <= 1e-12
    for bad in (np.array([1.1]), np.array([0.0, 0.0]), np.array([math.nan, 0.0])):
        with pytest.raises(DomainError, match="too far from 1"):
            make(bad)


def test_a_ray_checks_its_dimension_before_its_direction_norm():
    with pytest.raises(DimensionError):
        dirac_ray(np.zeros(2), np.array([5.0]))
    with pytest.raises(DimensionError):
        _custom_direction(np.array([5.0]), np.zeros(2))


def test_frozen_arrays_are_copies_of_the_callers():
    x, d, anchors = np.zeros(2), np.array([1.0, 0.0]), np.array([[0.0, 1.0]])
    ray, field, dist = dirac_ray(x, d), BusemannField(d), DistanceField(anchors)
    for own, callers in ((ray.base.support, x), (ray.directions, d), (field.direction, d),
                         (dist.points, anchors)):
        assert not own.flags.writeable
        assert callers.flags.writeable and not np.shares_memory(own, callers)
    x[0] = d[0] = anchors[0, 0] = 7.0
    assert ray.base.support[0, 0] == 0.0 and ray.directions[0, 0] == 1.0
    assert field.direction[0] == 1.0 and dist.points[0, 0] == 0.0


def test_eval_field_examples():
    b = BusemannField(np.array([1.0, 0.0]), 0.0)
    assert b.evaluate([3.0, 4.0]) == -3.0
    m = MinField((BusemannField(np.array([1.0])), BusemannField(np.array([-1.0]))))
    assert m.evaluate([2.0]) == -2.0
    assert BusemannField(np.array([0.0, 1.0]), 7.0).evaluate([0.0, 0.0]) == 7.0


def test_busemann_exact_lipschitz():
    rng = np.random.default_rng(2)
    b = BusemannField(np.array([0.6, 0.8]), 1.3)
    for _ in range(200):
        x, y = rng.uniform(-10, 10, (2, 2))
        assert abs(b.evaluate(x) - b.evaluate(y)) <= np.linalg.norm(x - y) + 1e-12


def _direction(u, x):
    """u's descent direction at the one point x: `descent_rays` on the row x."""
    return u.descent_rays(np.asarray(x, dtype=float)[None, :])[0]


def test_descent_ray_examples():
    b = BusemannField(np.array([1.0, 0.0]), 0.0)
    assert np.allclose(_direction(b, [0.0, 0.0]), [1.0, 0.0])

    m = MinField((BusemannField(np.array([1.0])), BusemannField(np.array([-1.0]), 5.0)))
    assert np.allclose(_direction(m, [0.0]), [1.0])

    # tie at the min locus goes to the lowest index
    tie = MinField((BusemannField(np.array([1.0])), BusemannField(np.array([-1.0]))))
    assert np.allclose(_direction(tie, [0.0]), [1.0])


@pytest.mark.parametrize("T", [1.0, 10.0, 100.0])
def test_descent_ray_calibration(T):
    rng = np.random.default_rng(3)
    fields = [
        BusemannField(np.array([0.6, 0.8]), 0.2),
        MinField((BusemannField(np.array([1.0, 0.0])),
                  BusemannField(np.array([0.0, -1.0]), 0.5))),
        DistanceField(np.array([[1.0, 1.0]]), sign=-1),
    ]
    for u in fields:
        for _ in range(10):
            x = rng.uniform(-4, 4, 2)
            assert abs((u.evaluate(x) - u.evaluate(x + T * _direction(u, x))) - T) <= 1e-10


def test_multi_anchor_distance_field_has_no_global_ray():
    u = DistanceField(np.array([[1.0, 1.0], [-2.0, 0.0]]), sign=-1)
    with pytest.raises(UnsupportedField):
        _direction(u, [0.9, 1.0])


def test_min_field_basics_and_the_configs_single_member_passes_through():
    one = base_field_from_config({"variant": "min", "fields": [
        {"variant": "busemann", "direction": [1.0], "offset": 0.5}]})
    assert type(one) is BusemannField and one.offset == 0.5
    m = MinField((BusemannField(np.array([1.0])), BusemannField(np.array([-1.0]))))
    assert m.evaluate([0.0]) == 0.0
    with pytest.raises(EmptyCollection):
        MinField(())
    with pytest.raises(EmptyCollection):
        base_field_from_config({"variant": "min", "fields": []})


def test_min_field_one_lipschitz_probe():
    rng = np.random.default_rng(4)
    m = MinField((BusemannField(np.array([1.0])), BusemannField(np.array([-1.0]))))
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(-10, 10, 2)
        if abs(x - y) < 1e-12:
            continue
        worst = max(worst, abs(m.evaluate([x]) - m.evaluate([y])) / abs(x - y))
    assert worst <= 1.0 + 1e-9


def test_min_field_associative_exactly():
    rng = np.random.default_rng(5)
    A = BusemannField(np.array([0.6, 0.8]), 0.1)
    B = BusemannField(np.array([-0.8, 0.6]), -0.4)
    C = BusemannField(np.array([0.0, 1.0]), 0.9)
    left = MinField((A, MinField((B, C))))
    right = MinField((MinField((A, B)), C))
    for _ in range(50):
        x = rng.uniform(-6, 6, 2)
        assert left.evaluate(x) == right.evaluate(x)


def test_distance_field_rays():
    u = DistanceField(np.array([[0.0, 0.0]]), sign=-1)
    x = np.array([3.0, 0.0])
    direction = _direction(u, x)
    assert np.allclose(direction, [1.0, 0.0])
    # outward distance keeps decreasing forever
    assert abs((u.evaluate(x) - u.evaluate(x + 50.0 * direction)) - 50.0) <= 1e-10
    # at the anchor itself the tie-break direction is e_1
    assert np.allclose(_direction(u, [0.0, 0.0]), [1.0, 0.0])
    with pytest.raises(UnsupportedField):
        _direction(DistanceField(np.array([[0.0, 0.0]]), sign=1), [3.0, 0.0])


def test_distance_field_batch_rays_have_the_bits_of_one_point():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        anchor = rng.normal(size=d)
        u = DistanceField(anchor[None, :], sign=-1)
        pts = rng.normal(scale=4.0, size=(300, d))
        for x, direction in zip(pts, u.descent_rays(pts)):
            assert np.array_equal(direction, (x - anchor) / np.linalg.norm(x - anchor))


def test_a_minimum_gives_each_row_the_ray_its_picked_member_gives_it_alone():
    rng = np.random.default_rng(9)
    for _ in range(300):
        d, n, k = (int(rng.integers(lo, hi)) for lo, hi in ((1, 4), (1, 13), (1, 6)))
        members = [BusemannField(v / np.linalg.norm(v), rng.uniform(-1.0, 1.0))
                   if rng.random() < 0.6 else DistanceField(rng.normal(size=(1, d)))
                   for v in rng.normal(size=(k, d))]
        members.append(members[0])  # a tie, which goes to the lower index
        u = MinField(tuple(members))
        pts = rng.normal(scale=2.0, size=(n, d))
        directions = u.descent_rays(pts)
        pick = np.array([f.evaluate_many(pts) for f in members]).argmin(axis=0)
        for i, j in enumerate(pick):
            assert directions[i].tobytes() == members[j].descent_rays(pts[i:i + 1])[0].tobytes()


def test_custom_field_ray_registration():
    u = CustomField(lambda p: min(0.0, -p[0]), dim=1)
    assert u.evaluate([2.0]) == -2.0
    assert u.evaluate([-3.0]) == 0.0
    with pytest.raises(UnsupportedField):
        _direction(u, [1.0])
    with_ray = CustomField(lambda p: -p[0], dim=1, direction_fn=lambda p: np.array([1.0]))
    assert np.allclose(_direction(with_ray, [0.0]), [1.0])
    with pytest.raises(TypeError):  # the keyword of rays with an origin of their own
        CustomField(lambda p: -p[0], dim=1, ray_fn=lambda p: None)


def test_field_from_config():
    cfg = {"variant": "min", "fields": [
        {"variant": "busemann", "direction": [1.0, 0.0], "offset": 0.0},
        {"variant": "busemann", "direction": [0.0, 1.0], "offset": 0.5},
    ]}
    u = base_field_from_config(cfg)
    assert u.evaluate([1.0, 2.0]) == -1.5  # min(-1, 0.5 - 2)
    d = base_field_from_config({"variant": "distance", "points": [[0.0]], "sign": -1})
    assert d.evaluate([2.0]) == -2.0
    with pytest.raises(DomainError):
        base_field_from_config({"variant": "nope"})
