#!/usr/bin/env python3
"""wasslab benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload small_solves --seed 1 --seconds 40 --trace 0

Runs every item of the workload once per round, for whole rounds, until
`--seconds` have passed.  The host this was built on alternates between a
fast and a slow state about 1.75x apart; what repeats from run to run is
the time of short stretches of work in their fastest round (see Fastest).
Every round translates all inputs by its own offset (see workloads.py)
and every output of every round is checked (see checks.py).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Lines before it
state every metric by name and unit, plus figures that are printed but
not gated.  A detailed record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 11     # fresh processes timing import + input build, spread over the run
MEMORY_PROBES = 3     # of these, how many then run MEMORY_ROUNDS rounds for peak_rss_mb
MEMORY_ROUNDS = 2     # two rounds, so memory kept from one round to the next shows
MIN_ROUNDS = 3
TAIL_MIN_ITEMS = 40   # fewer items than this and a percentile beyond p50 is no tail
HARD_LIMIT_S = 150.0  # stop starting rounds after this, whatever --seconds says
FAST_RATIO = 1.25     # an item run within this factor of the item's fastest counts as fast


def import_wasslab():
    """Import wasslab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wasslab
    if Path(wasslab.__file__).resolve().parent != src / "wasslab":
        raise SystemExit(f"wasslab imported from {wasslab.__file__}, not from {src}")
    return wasslab


_IMPORT_MARK, _BUILD_MARK = "perfbench: import", "perfbench: build"


def peak_rss_mb() -> float:
    """This process's own peak resident memory.

    VmHWM, not ru_maxrss: a child's ru_maxrss starts at its parent's peak.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup_probe(workload: str, seed: int, rounds: int) -> dict:
    """Import wasslab and build the workload's inputs in this fresh process.

    Runs under `python -X importtime`, which times every module's import on
    stderr; the marks on stderr bound the import phase.  The build is cut
    into segments at every entry to and exit from `validate_measure`.
    Then `rounds` untimed rounds of the workload run, without the checks
    and so without scipy, and the process reports its peak memory.
    """
    print(_IMPORT_MARK, file=sys.stderr, flush=True)
    t0 = time.perf_counter()
    import_wasslab()
    import workloads
    import_s = time.perf_counter() - t0
    print(_BUILD_MARK, file=sys.stderr, flush=True)
    from tracing import SegmentClock
    clock = SegmentClock(target=("discrete_measure", "validate_measure"))
    clock.install()
    clock.marks.append(time.perf_counter())
    w = workloads.build(workload, seed)
    clock.marks.append(time.perf_counter())
    clock.remove()
    for r in range(rounds):
        w.start_round(r)
        for k in range(len(w.items)):
            try:
                w.call(k)()
            except Exception:  # the main process checks and reports it
                pass
    return {"import_s": import_s, "build": [b - a for a, b in zip(clock.marks, clock.marks[1:])],
            "peak_rss_mb": peak_rss_mb() if rounds else None}


def run_setup_probe(workload: str, seed: int, rounds: int) -> dict:
    """One set-up in a fresh process: its import time per module and its build segments."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--probe-rounds", str(rounds)],
        capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stderr.splitlines()
    modules = {}
    for line in lines[lines.index(_IMPORT_MARK) + 1:lines.index(_BUILD_MARK)]:
        if line.startswith("import time:") and "|" in line and "self [us]" not in line:
            self_us, _, name = line[len("import time:"):].split("|")
            modules[name.strip()] = int(self_us) * 1e-6
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["modules"] = modules
    return probe


def setup_time(probes: list[dict]) -> float:
    """Set-up time from its segments, each at its fastest probe.

    The segments are each module's own import time, the rest of the import
    phase, and the build's segments.  Like an item's time, this takes the
    host's fast state wherever a probe met it.
    """
    names = set.intersection(*(set(p["modules"]) for p in probes))
    total = sum(min(p["modules"][n] for p in probes) for n in names)
    total += min(max(p["import_s"] - sum(p["modules"][n] for n in names), 0.0) for p in probes)
    builds = [p["build"] for p in probes]
    if len({len(b) for b in builds}) == 1:
        total += sum(min(seg) for seg in zip(*builds))
    else:
        total += min(sum(b) for b in builds)
    return total


def tail_rank(n: int) -> tuple[int, float]:
    """0-based rank and percentile of the highest percentile with ten items beyond it."""
    if n < TAIL_MIN_ITEMS:
        raise ValueError(f"{n} items: a percentile with ten beyond it would be no tail")
    rank = n - 11
    return rank, 100.0 * (rank + 1) / n


class Fastest:
    """Per item, the fastest time over the rounds of each of its segments.

    The solver's entry and exit marks cut an item's run into segments.  On
    this kind of host the fast state comes in bursts of about a millisecond,
    so a segment that short runs inside a burst in some round, while a whole
    item of 10 ms rarely does.  An item's time is the sum of its segments'
    fastest rounds; if its segment count ever changes between rounds, its
    fastest whole round is used instead.
    """

    def __init__(self, n_items: int):
        self.segments: list = [None] * n_items
        self.whole = [math.inf] * n_items
        self.uneven: set[int] = set()

    def add(self, k: int, marks: list[float]) -> bool:
        """Record one run of item k; True if it is the fastest whole run so far."""
        segs = [b - a for a, b in zip(marks, marks[1:])]
        faster = marks[-1] - marks[0] < self.whole[k]
        if faster:
            self.whole[k] = marks[-1] - marks[0]
        best = self.segments[k]
        if best is None:
            self.segments[k] = segs
        elif len(best) != len(segs):
            self.uneven.add(k)
        else:
            self.segments[k] = [min(x, y) for x, y in zip(best, segs)]
        return faster

    def times(self) -> list[float]:
        return [self.whole[k] if k in self.uneven or seg is None else math.fsum(seg)
                for k, seg in enumerate(self.segments)]


class Rounds:
    """Runs a workload round by round and gathers what the metrics need.

    An item's round is timed only if its checks found no problem, so a
    round cut short by a raise, or one that computed something wrong, never
    becomes the item's fastest.  With a tracer, every other round is traced.
    """

    def __init__(self, workload, checks, marks: list[float], tracer=None):
        n_items = len(workload.items)
        self.workload, self.checks, self.marks, self.tracer = workload, checks, marks, tracer
        self.plain, self.traced_best = Fastest(n_items), Fastest(n_items)
        self.layers = [None] * n_items
        self.whole_runs: list[list[float]] = [[] for _ in range(n_items)]  # untraced, for the host figure
        self.repeat_shares: list[float] = []  # per traced round; rounding can make or break a repeat
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.count = 0

    def run(self) -> None:
        r, w, tracer, marks = self.count, self.workload, self.tracer, self.marks
        traced = tracer is not None and r % 2 == 1
        w.start_round(r)
        if traced:
            tracer.install()
        for k in range(len(w.items)):
            fn = w.call(k)
            if traced:
                tracer.begin_item()
            marks.clear()
            marks.append(time.perf_counter())
            try:
                result = fn()
            except Exception as exc:  # a raising call is a failed operation
                result = exc
            marks.append(time.perf_counter())
            item_marks = marks[:]
            spans = tracer.end_item() if traced else None
            failed, problems = self.checks.check(w, k, result)
            self.attempted += w.item_ops(k)
            self.failed += failed
            if problems:
                self.problems.extend(f"round {r}: {p}" for p in problems)
            elif traced:
                if self.traced_best.add(k, item_marks):
                    self.layers[k] = spans
            else:
                self.plain.add(k, item_marks)
                self.whole_runs[k].append(item_marks[-1] - item_marks[0])
        if traced:
            tracer.remove()
            self.repeat_shares.append(tracer.take_repeat_share())
        self.count += 1

    def host_state(self) -> tuple[float, float]:
        """Share of item runs within FAST_RATIO of the item's fastest, and the
        median over items of an item's median run over its fastest."""
        runs = [rs for rs in self.whole_runs if rs]
        if not runs:
            return math.nan, math.nan
        fast = sum(t <= FAST_RATIO * min(rs) for rs in runs for t in rs) / sum(map(len, runs))
        return fast, statistics.median(statistics.median(rs) / min(rs) for rs in runs)


def measure(rounds: Rounds, seconds: float, seed: int) -> list[dict]:
    """Run whole rounds for `seconds`, with the set-up probes spread over them."""
    probes: list[dict] = []
    name = rounds.workload.name

    def probe():
        probes.append(run_setup_probe(name, seed, MEMORY_ROUNDS if len(probes) < MEMORY_PROBES else 0))

    start = time.perf_counter()
    while True:
        rounds.run()
        elapsed = time.perf_counter() - start
        while len(probes) < SETUP_PROBES and elapsed >= len(probes) * seconds / SETUP_PROBES:
            probe()
            elapsed = time.perf_counter() - start
        if (elapsed >= seconds and rounds.count >= MIN_ROUNDS and len(probes) == SETUP_PROBES) \
                or elapsed >= HARD_LIMIT_S:
            break
    while len(probes) < SETUP_PROBES:
        probe()
    return probes


def end_to_end(rounds: Rounds, probes: list[dict]) -> tuple[dict, list[str]]:
    best = [t for t in rounds.plain.times() if math.isfinite(t)]  # items with a clean round
    memory = [p["peak_rss_mb"] for p in probes if p["peak_rss_mb"] is not None]
    metrics = {
        "setup_s": (setup_time(probes), "s"),
        "pass_s": (math.fsum(best), "s"),
        "peak_rss_mb": (statistics.median(memory), "MB"),
    }
    n = len(best)
    whole = statistics.median(p["import_s"] + sum(p["build"]) for p in probes)
    notes = [f"item_p50_ms = {statistics.median(best) * 1e3:.6g} ms over {n} items "
             "(not gated: moved 28 % between a quiet and a busy hour of the host)"]
    if n >= TAIL_MIN_ITEMS:
        rank, pct = tail_rank(n)
        notes.append(f"item_tail_ms = {sorted(best)[rank] * 1e3:.6g} ms: p{pct:.1f} over {n} items "
                     "per pass, with 10 beyond it (not gated: one item's time, too seed-dependent)")
    notes += [f"set-up timed whole = {whole:.6g} s, median of {len(probes)} probes (not gated)",
              f"peak_rss_mb is the median of {len(memory)} fresh processes that import wasslab, "
              f"build the inputs and run {MEMORY_ROUNDS} rounds without the checks"]
    return metrics, notes


def per_layer(rounds: Rounds) -> tuple[dict, list[str]]:
    from tracing import SOLVE, TRACED
    totals = {f"{mod}.{fn}": [0, 0.0, 0.0] for mod, fn in TRACED}
    for spans in rounds.layers:
        for name, (calls, self_s, incl_s) in (spans or {}).items():
            rec = totals[name]
            rec[0] += calls
            rec[1] += self_s
            rec[2] += incl_s
    metrics = {}
    for name, (calls, self_s, incl_s) in totals.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1e3, "ms")
        if name == SOLVE:
            metrics[f"{name}.mean_us"] = (incl_s / calls * 1e6 if calls else 0.0, "us")
            metrics[f"{name}.repeat_share"] = (
                statistics.median(rounds.repeat_shares) if rounds.repeat_shares else 0.0, "ratio")
    plain = math.fsum(t for t in rounds.plain.times() if math.isfinite(t))
    traced = math.fsum(t for t in rounds.traced_best.times() if math.isfinite(t))
    metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain if plain else 0.0, "%")
    notes = [f"traced pass_s = {traced:.4f} s, untraced pass_s = {plain:.4f} s "
             "(interleaved rounds of this run)"]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe-rounds", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed, args.probe_rounds)))
        return 0

    wall0 = time.perf_counter()
    import_wasslab()
    import checks
    import workloads
    from tracing import SegmentClock, Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.build(args.workload, args.seed)
    checks.attach_references(workload)
    clock = SegmentClock()
    clock.install()
    rounds = Rounds(workload, checks, clock.marks, Tracer() if args.trace else None)
    probes = measure(rounds, args.seconds, args.seed)
    clock.remove()
    metrics, notes = per_layer(rounds) if args.trace else end_to_end(rounds, probes)
    fast_share, slowdown = rounds.host_state()
    wall = time.perf_counter() - wall0

    for p in rounds.problems[:20]:
        print(f"PROBLEM {p}", file=sys.stderr)
    correct = not rounds.problems
    uneven = rounds.plain.uneven | rounds.traced_best.uneven
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{rounds.count} rounds of {len(workload.items)} items, "
          f"{rounds.attempted} operations, {rounds.failed} failed, "
          f"{len(rounds.problems)} problems, "
          f"{len(uneven)} items timed whole (segment count changed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(f"host: {100 * fast_share:.1f} % of item runs within {FAST_RATIO}x of the item's fastest; "
          f"median item run {slowdown:.3f}x its fastest (not gated; compare runs only in like states)")
    print(f"wall_s = {wall:.3f} s (not gated)")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": rounds.count, "wall_s": wall,
        "host": {"fast_share": fast_share, "median_slowdown": slowdown},
        "items": {workload.item_name(k): {"best_s": t, "layers": rounds.layers[k]}
                  for k, t in enumerate(rounds.plain.times())},
        "setup_probes_s": [p["import_s"] + sum(p["build"]) for p in probes],
        "problems": rounds.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
