"""Tests of the benchmark itself: references, round offsets, traffic, tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import wasslab as wl  # noqa: E402

import checks  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _weights(rng, n):
    w = rng.random(n) + 0.05
    return w / w.sum()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_references_agree_with_brute_force(d):
    rng = np.random.default_rng(40 + d)
    for k in range(12):
        p = (1.0, 2.0, 3.0)[k % 3]
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x, y = rng.uniform(-5, 5, (n, d)), rng.uniform(-5, 5, (m, d))
        a, b = _weights(rng, n), _weights(rng, m)
        truth = wl.brute_force_oracle(wl.validate_measure(x, a), wl.validate_measure(y, b), p).value
        assert refs.value_matches(refs.w_p(x, a, y, b, p), truth)
        if n > 1 and m > 1:
            assert refs.value_matches(refs.lp_value(x, a, y, b, p), truth)
            if d == 1:
                assert refs.value_matches(refs.quantile_1d(x, a, y, b, p), truth)
        else:
            assert refs.value_matches(refs.dirac_side(x, a, y, b, p), truth)


def test_references_survive_extreme_scale():
    s = workloads.extreme_solves()
    values = [refs.w_p(e.x, e.a, e.y, e.b, e.p) for e in s]
    assert values[0] == pytest.approx(2000.7667224875727, rel=1e-12)
    assert 1990.0 < values[1] < 2010.0
    assert values[2] == pytest.approx(1e-6, rel=1e-9)


def test_escaping_reference_is_the_distance():
    for n in (1, 7, 50):
        for p in (2.0, 3.0):
            e = workloads._escaping_solve(n, p)
            assert refs.value_matches(refs.w_p(e.x, e.a, e.y, e.b, p), refs.escaping_distance(n, p))


def test_round_offsets_give_distinct_cache_keys():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        mu = wl.validate_measure(rng.uniform(-10, 10, (3, d)), _weights(rng, 3))
        keys = {mu.cache_key()}
        for r in range(500):
            o = workloads.round_offset(r, d)
            assert o.shape == (d,) and np.all(np.abs(o) <= 4.0)
            keys.add(mu.translate(o).cache_key())
        assert len(keys) == 501


def _pass_keys(w, r=0):
    w.start_round(r)
    keys = []
    for item in w.items:
        for i in item:
            mu, nu = w.round_measures[i]
            keys.append((mu.cache_key(), nu.cache_key(), w.solves[i].p))
    return keys


def test_small_solves_traffic_make_up():
    w = workloads.build("small_solves", 5)
    keys = _pass_keys(w)
    n = len(keys)
    assert n == 2973 and len(w.items) == 149
    assert all(len(item) == workloads.SMALL_ITEM for item in w.items[:-1])
    repeats = n - len(set(keys))
    assert repeats / n == pytest.approx(0.397, abs=0.002)  # as in the acceptance battery
    # as in the battery, most repeats come C04_GAP solves after the first call, the rest at once
    last, gaps = {}, []
    for pos, key in enumerate(keys):
        if key in last:
            gaps.append(pos - last[key])
        last[key] = pos
    assert gaps.count(workloads.C04_GAP) == workloads.C04_SOLVES
    assert gaps.count(1) == workloads.SMALL_IMMEDIATE == repeats - workloads.C04_SOLVES
    sizes = [(w.solves[i].mu.n_atoms, w.solves[i].nu.n_atoms) for i in w.order]
    assert sum(s == (2, 2) for s in sizes) / n == pytest.approx(0.73, abs=0.01)
    assert sum(min(s) == 1 for s in sizes) / n == pytest.approx(0.13, abs=0.01)
    assert sum(7 <= max(s) <= 12 for s in sizes) / n == pytest.approx(0.06, abs=0.01)
    assert sum(w.solves[i].mu.dim == 1 for i in w.order) / n == pytest.approx(0.80, abs=0.015)
    assert sum(w.solves[i].p == 2.0 for i in w.order) / n == pytest.approx(0.94, abs=0.01)
    # the same make-up for another seed; rounds keep the repeats and share no keys
    other = workloads.build("small_solves", 6)
    assert [(s.mu.n_atoms, s.nu.n_atoms, s.p) for s in other.solves] == \
        [(s.mu.n_atoms, s.nu.n_atoms, s.p) for s in w.solves]
    later = _pass_keys(w, 7)
    assert len(later) - len(set(later)) == repeats
    assert not set(later) & set(keys)


def test_pivot_solves_have_no_repeats():
    w = workloads.build("pivot_solves", 5)
    keys = _pass_keys(w)
    assert len(set(keys)) == len(keys) == workloads.PIVOT_SOLVES
    assert len(w.items) >= run.TAIL_MIN_ITEMS
    assert all(5 <= s.mu.n_atoms <= 7 and 5 <= s.nu.n_atoms <= 7 and s.mu.dim == 2 for s in w.solves)


def test_verdict_seed_draws_only_the_rng_seeds():
    a, b = workloads.verdict_cases(1), workloads.verdict_cases(2)
    for x, y in zip(a, b):
        assert np.array_equal(x.omega_x, y.omega_x) and np.array_equal(x.target_x, y.target_x)
        assert np.array_equal(x.directions, y.directions) and np.array_equal(x.ray_origin, y.ray_origin)
    assert [c.rng_seed for c in a] == [c.rng_seed for c in workloads.verdict_cases(1)]
    assert len({c.rng_seed for c in a} | {c.rng_seed for c in b}) == 2 * workloads.VERDICT_CASES


def test_checks_count_extreme_failures_and_flag_wrong_values():
    w = workloads.build("small_solves", 5)
    checks.attach_references(w)
    w.start_round(0)
    last = len(w.items) - 1
    ops = w.item_ops(last)
    results = [wl.wasserstein_exact(*w.round_measures[i], w.solves[i].p) for i in w.items[last]]
    failed, problems = checks.check(w, last, results)
    assert failed == len(workloads.extreme_solves()) and problems == []
    bad = results[0]
    tampered = wl.TransportResult(bad.value * (1 + 1e-6), bad.cost, bad.plan, bad.solver, bad.p)
    failed, problems = checks.check(w, last, [tampered] + results[1:])
    assert len(problems) == 1 and "reference" in problems[0]
    # a raising extreme-scale solve is a known failure; any other raise is a problem too
    failed, problems = checks.check(w, last, results[:-1] + [RuntimeError("overflow")])
    assert failed == 3 and problems == []
    failed, problems = checks.check(w, last, [RuntimeError("solver raised")] + results[1:])
    assert failed == 4 and len(problems) == 1 and "raised" in problems[0]
    failed, problems = checks.check(w, last, RuntimeError("item raised"))
    assert failed == ops and len(problems) == 1
    verdicts = workloads.build("verdicts", 5)
    failed, problems = checks.check(verdicts, 0, RuntimeError("verdict raised"))
    assert failed == 1 and len(problems) == 1


def test_rounds_with_a_raise_are_not_timed(monkeypatch):
    rng = np.random.default_rng(9)
    solves = [workloads._random_solve(rng, 6, 6, 2, 2.0) for _ in range(4)]
    w = workloads.SolveWorkload("raising", solves, [0, 1, 2, 3], item_size=2)
    checks.attach_references(w)
    rounds = run.Rounds(w, checks, marks=[])
    solve = wl.wasserstein_exact
    target = w.solves[0]

    def raising(mu, nu, p):  # item 0's first solve raises at once in round 1
        if rounds.count == 1 and mu.n_atoms == target.mu.n_atoms and \
                np.array_equal(mu.weights, target.mu.weights):
            raise RuntimeError("early exit")
        return solve(mu, nu, p)
    monkeypatch.setattr(wl, "wasserstein_exact", raising)
    for _ in range(3):
        rounds.run()
    assert rounds.attempted == 12 and rounds.failed == 1
    assert len(rounds.problems) == 1 and rounds.problems[0].startswith("round 1: ")
    assert [len(runs) for runs in rounds.whole_runs] == [2, 3]
    assert rounds.plain.times()[0] == pytest.approx(min(rounds.whole_runs[0]))
    fast_share, slowdown = rounds.host_state()
    assert 0.0 < fast_share <= 1.0 and slowdown >= 1.0


def test_tracer_splits_self_time_and_restores_functions():
    orig = wl.wgeom.wasserstein_exact
    tracer = Tracer()
    tracer.install()
    try:
        mu = wl.validate_measure([[0.0], [1.0]], [0.5, 0.5])
        tracer.begin_item()
        wl.displacement_path(mu, mu.translate([3.0]))
        wl.displacement_path(mu, mu.translate([3.0]))
        spans = tracer.end_item()
    finally:
        tracer.remove()
    assert wl.wgeom.wasserstein_exact is orig
    assert spans["wgeom.displacement_path"][0] == 2
    assert spans["ot_exact.wasserstein_exact"][0] == 2
    assert spans["discrete_measure.validate_measure"][0] == 2
    calls, self_s, incl_s = spans["wgeom.displacement_path"]
    assert 0.0 < self_s < incl_s
    assert tracer.take_repeat_share() == 0.5


def test_tail_rank_leaves_ten_items_beyond():
    for n in (40, 48, 60):
        rank, pct = run.tail_rank(n)
        assert n - 1 - rank == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_setup_time_takes_each_segment_at_its_fastest_probe():
    probes = [
        {"modules": {"a": 1.0, "b": 2.0}, "import_s": 4.0, "build": [1.0, 2.0]},
        {"modules": {"a": 2.0, "b": 1.0, "lazy": 9.0}, "import_s": 3.5, "build": [2.0, 1.0]},
    ]
    # modules 1 + 1, rest of the import min(1, 0.5), build 1 + 1
    assert run.setup_time(probes) == pytest.approx(4.5)
