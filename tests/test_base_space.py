import math

import numpy as np
import pytest

from wasslab.base_space import (
    BaseRay,
    BusemannField,
    CustomField,
    DistanceField,
    MinField,
    base_field_from_config,
    min_combine,
)
from wasslab.errors import DomainError, EmptyCollection, UnsupportedField


def test_ray_eval_examples():
    r = BaseRay(np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(r.eval(5.0), [5.0, 0.0])
    assert np.allclose(r.eval(0.0), [0.0, 0.0])
    r2 = BaseRay(np.array([1.0]), np.array([-1.0]), speed=2.0)
    assert np.allclose(r2.eval(3.0), [-5.0])
    with pytest.raises(DomainError):
        r.eval(-0.1)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_ray_eval_refuses_a_non_finite_time(t):
    with pytest.raises(DomainError, match="t="):
        BaseRay(np.zeros(1), np.array([1.0])).eval(t)


def test_ray_direction_renormalized_or_rejected():
    r = BaseRay(np.zeros(1), np.array([1.0 + 5e-10]))
    assert abs(np.linalg.norm(r.direction) - 1.0) <= 1e-12
    with pytest.raises(DomainError):
        BaseRay(np.zeros(1), np.array([1.1]))
    with pytest.raises(DomainError):
        BaseRay(np.zeros(1), np.array([1.0]), speed=0.0)


def test_frozen_arrays_are_copies_of_the_callers():
    x, d, anchors = np.zeros(2), np.array([1.0, 0.0]), np.array([[0.0, 1.0]])
    ray, field, dist = BaseRay(x, d), BusemannField(d), DistanceField(anchors)
    for own, callers in ((ray.origin, x), (ray.direction, d), (field.direction, d),
                         (dist.points, anchors)):
        assert not own.flags.writeable
        assert callers.flags.writeable and not np.shares_memory(own, callers)
    x[0] = d[0] = anchors[0, 0] = 7.0
    assert ray.origin[0] == 0.0 and ray.direction[0] == 1.0
    assert field.direction[0] == 1.0 and dist.points[0, 0] == 0.0


def test_ray_additivity_invariant():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        v = rng.normal(size=d)
        ray = BaseRay(rng.uniform(-3, 3, d), v / np.linalg.norm(v),
                      speed=float(rng.uniform(0.5, 2.0)))
        s, t = np.sort(rng.uniform(0, 100, 2))
        gap = np.linalg.norm(ray.eval(t) - ray.eval(s)) - (t - s) * ray.speed
        assert abs(gap) <= 1e-12


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


def test_negative_gradient_ray_examples():
    b = BusemannField(np.array([1.0, 0.0]), 0.0)
    ray = b.negative_gradient_ray([0.0, 0.0])
    assert np.allclose(ray.origin, [0.0, 0.0]) and np.allclose(ray.direction, [1.0, 0.0])

    m = MinField((BusemannField(np.array([1.0])), BusemannField(np.array([-1.0]), 5.0)))
    ray = m.negative_gradient_ray([0.0])
    assert np.allclose(ray.direction, [1.0])

    # tie at the min locus goes to the lowest index
    tie = MinField((BusemannField(np.array([1.0])), BusemannField(np.array([-1.0]))))
    ray = tie.negative_gradient_ray([0.0])
    assert np.allclose(ray.direction, [1.0])


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
            ray = u.negative_gradient_ray(x)
            assert abs((u.evaluate(ray.eval(0.0)) - u.evaluate(ray.eval(T))) - T) <= 1e-10


def test_multi_anchor_distance_field_has_no_global_ray():
    u = DistanceField(np.array([[1.0, 1.0], [-2.0, 0.0]]), sign=-1)
    with pytest.raises(UnsupportedField):
        u.negative_gradient_ray([0.9, 1.0])


def test_min_combine_basics():
    b = BusemannField(np.array([1.0]))
    assert min_combine([b]) is b
    m = min_combine([BusemannField(np.array([1.0])), BusemannField(np.array([-1.0]))])
    assert m.evaluate([0.0]) == 0.0
    with pytest.raises(EmptyCollection):
        min_combine([])


def test_min_combine_one_lipschitz_probe():
    rng = np.random.default_rng(4)
    m = min_combine([BusemannField(np.array([1.0])), BusemannField(np.array([-1.0]))])
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(-10, 10, 2)
        if abs(x - y) < 1e-12:
            continue
        worst = max(worst, abs(m.evaluate([x]) - m.evaluate([y])) / abs(x - y))
    assert worst <= 1.0 + 1e-9


def test_min_combine_associative_exactly():
    rng = np.random.default_rng(5)
    A = BusemannField(np.array([0.6, 0.8]), 0.1)
    B = BusemannField(np.array([-0.8, 0.6]), -0.4)
    C = BusemannField(np.array([0.0, 1.0]), 0.9)
    left = min_combine([A, min_combine([B, C])])
    right = min_combine([min_combine([A, B]), C])
    for _ in range(50):
        x = rng.uniform(-6, 6, 2)
        assert left.evaluate(x) == right.evaluate(x)


def test_distance_field_rays():
    u = DistanceField(np.array([[0.0, 0.0]]), sign=-1)
    ray = u.negative_gradient_ray([3.0, 0.0])
    assert np.allclose(ray.direction, [1.0, 0.0])
    # outward distance keeps decreasing forever
    assert abs((u.evaluate(ray.eval(0.0)) - u.evaluate(ray.eval(50.0))) - 50.0) <= 1e-10
    # at the anchor itself the tie-break direction is e_1
    at_anchor = u.negative_gradient_ray([0.0, 0.0])
    assert np.allclose(at_anchor.direction, [1.0, 0.0])
    with pytest.raises(UnsupportedField):
        DistanceField(np.array([[0.0, 0.0]]), sign=1).negative_gradient_ray([3.0, 0.0])


def test_distance_field_batch_rays_have_the_bits_of_one_point():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        anchor = rng.normal(size=d)
        u = DistanceField(anchor[None, :], sign=-1)
        pts = rng.normal(scale=4.0, size=(300, d))
        origins, directions = u.descent_rays(pts)
        assert np.array_equal(origins, pts)
        for x, direction in zip(pts, directions):
            assert np.array_equal(direction, (x - anchor) / np.linalg.norm(x - anchor))


def test_custom_field_ray_registration():
    u = CustomField(lambda p: min(0.0, -p[0]), dim=1)
    assert u.evaluate([2.0]) == -2.0
    assert u.evaluate([-3.0]) == 0.0
    with pytest.raises(UnsupportedField):
        u.negative_gradient_ray([1.0])
    with_ray = CustomField(lambda p: -p[0], dim=1,
                           ray_fn=lambda p: BaseRay(p, np.array([1.0])))
    assert np.allclose(with_ray.negative_gradient_ray([0.0]).direction, [1.0])


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
