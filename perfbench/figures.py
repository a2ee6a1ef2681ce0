#!/usr/bin/env python3
"""Reference figures quoted in README.md; not part of any workload.

    python3 perfbench/figures.py traffic      # solve traffic of the acceptance battery
    python3 perfbench/figures.py acceptance   # wall time of each acceptance criterion
    python3 perfbench/figures.py large        # wasslab and HiGHS on 25-60-atom solves
    python3 perfbench/figures.py bursts       # lengths of the host's fast and slow stretches

Each prints plain text.  The timings move with the host's state; the
traffic counts do not.
"""

from __future__ import annotations

import argparse
import collections
import statistics
import sys
import time

import run

wl = run.import_wasslab()

import refs  # noqa: E402
import workloads  # noqa: E402

ACCEPTANCE_RUNS = 3   # runs of the acceptance battery timed per criterion
LARGE_SEED = 1        # seed of the 25-60-atom instances
BURST_SECONDS = 6.0   # how long the burst kernel runs back to back


def traffic() -> None:
    """Every wasserstein_exact call the acceptance battery makes."""
    from wasslab import acceptance
    from tracing import _patch, _unpatch

    log = []

    def make_wrapper(name, fn):
        def logged(mu, nu, p=2.0):
            log.append((mu.n_atoms, nu.n_atoms, mu.dim, float(p),
                        (mu.cache_key(), nu.cache_key(), float(p))))
            return fn(mu, nu, p)
        return logged
    patches = _patch([("ot_exact", "wasserstein_exact")], make_wrapper)
    try:
        results = acceptance.run_all()
    finally:
        _unpatch(patches)
    n = len(log)
    seen, gaps = {}, []
    for i, (*_, key) in enumerate(log):
        if key in seen:
            gaps.append(i - seen[key])
        seen[key] = i
    print(f"criteria passed: {sum(ok for _, ok, _ in results)}/{len(results)}")
    print(f"solves: {n}")
    print(f"repeat an earlier (mu, nu, p): {len(gaps)} ({len(gaps) / n:.1%}); "
          f"reuse distance 1: {sum(g == 1 for g in gaps)}, "
          f"most common distance: {collections.Counter(gaps).most_common(1)[0]}")
    share = lambda pred: sum(pred(n_, m_) for n_, m_, *_ in log) / n  # noqa: E731
    print(f"2x2: {share(lambda a, b: a == b == 2):.1%}; Dirac side: {share(lambda a, b: min(a, b) == 1):.1%}; "
          f"7-12 atoms: {share(lambda a, b: 7 <= max(a, b) <= 12):.1%}; "
          f">12 atoms: {share(lambda a, b: max(a, b) > 12):.1%}")
    print("d:", dict(sorted(collections.Counter(d for _, _, d, _, _ in log).items())))
    print("p:", dict(sorted(collections.Counter(p for *_, p, _ in log).items())))


def acceptance_times() -> None:
    """Wall time per criterion, fastest and slowest of ACCEPTANCE_RUNS runs."""
    from wasslab.acceptance import CRITERIA

    times = collections.defaultdict(list)
    for _ in range(ACCEPTANCE_RUNS):
        for crit in CRITERIA:
            t0 = time.perf_counter()
            ok, _ = crit.run()
            times[crit.name].append(time.perf_counter() - t0)
            if not ok:
                print(f"{crit.name} FAILED")
    total = [sum(t[k] for t in times.values()) for k in range(ACCEPTANCE_RUNS)]
    for name, t in times.items():
        print(f"{name:28s} {min(t):7.3f} s .. {max(t):7.3f} s")
    print(f"{'total':28s} {min(total):7.3f} s .. {max(total):7.3f} s over {ACCEPTANCE_RUNS} runs")


def large() -> None:
    """The sizes a large_solves workload would use, timed once each."""
    import numpy as np

    rng = np.random.default_rng(LARGE_SEED)
    for n in (25, 40, 60):
        for p in (1.0, 2.0):
            s = workloads._random_solve(rng, n, n, 2, p)
            s.build()
            t0 = time.perf_counter()
            got = wl.wasserstein_exact(s.mu, s.nu, p).value
            t1 = time.perf_counter()
            ref = refs.lp_value(s.x, s.a, s.y, s.b, p)
            t2 = time.perf_counter()
            print(f"n=m={n} p={p:g}: wasslab {1e3 * (t1 - t0):8.1f} ms, HiGHS {1e3 * (t2 - t1):6.1f} ms, "
                  f"agree: {refs.value_matches(got, ref)}")


def bursts() -> None:
    """Run a 5-solve kernel back to back and report its fast and slow stretches."""
    import numpy as np

    rng = np.random.default_rng(0)
    pairs = [(wl.random_measure(rng, 3, 1), wl.random_measure(rng, 3, 1)) for _ in range(5)]
    samples = []
    end = time.perf_counter() + BURST_SECONDS
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        for a, b in pairs:
            wl.wasserstein_exact(a, b, 2.0)
        samples.append((t0, time.perf_counter() - t0))
    fastest = min(dt for _, dt in samples)
    fast = [dt < 1.25 * fastest for _, dt in samples]
    runs = collections.defaultdict(list)
    begin = samples[0][0]
    for (t, _), f, prev in zip(samples[1:], fast[1:], fast):
        if f != prev:
            runs[prev].append(t - begin)
            begin = t
    print(f"kernel: fastest {1e3 * fastest:.3f} ms, median {1e3 * statistics.median(dt for _, dt in samples):.3f} ms "
          f"over {len(samples)} runs in {BURST_SECONDS:g} s")
    for state, label in ((True, "fast (< 1.25x fastest)"), (False, "slow")):
        lengths = sorted(1e3 * x for x in runs[state]) or [0.0]
        print(f"{label}: {len(runs[state])} stretches, median {statistics.median(lengths):.1f} ms, "
              f"longest {lengths[-1]:.1f} ms, {sum(lengths) / 1e3:.2f} s in all")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("figure", choices=("traffic", "acceptance", "large", "bursts"))
    args = ap.parse_args(argv)
    {"traffic": traffic, "acceptance": acceptance_times, "large": large, "bursts": bursts}[args.figure]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
