#!/usr/bin/env python3
"""Calls and microseconds per call of the sphere-candidate primitives in a `verdicts` pass.

    python3 tools/primitive_times.py [TREE] [--seed 1] [--rounds 37]

Imports wasslab from TREE/src and the benchmark's workloads from
TREE/perfbench (TREE defaults to this checkout), wraps each primitive below
in a timer at every module that holds it, runs rounds 0 .. rounds-1 of the
seed's `verdicts` workload, and prints one JSON object: per primitive its
calls per pass and its inclusive time per call in the pass whose total time
for that primitive was least (a primitive's time includes the wrapper's two
clock reads), with the least whole-pass time. Passing two checkouts in
turn compares two versions of wasslab with the same script.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

PRIMITIVES = (  # (module, attribute, or class.method)
    ("discrete_measure", "validate_measure"),
    ("wgeom", "shift_bracket"),
    ("ot_exact", "dirac_value"),
    ("measure_fields", "LiftedField.evaluate"),
    ("base_space", "MinField.descent_rays"),
)


def wrap(name: str, fn, spent: dict, calls: dict):
    clock = time.perf_counter_ns

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += clock() - t0
            calls[name] += 1
    return timed


def install(wl, spent: dict, calls: dict) -> None:
    modules = [m for k, m in sys.modules.items() if k.startswith("wasslab.")]
    for mod_name, attr in PRIMITIVES:
        name = f"{mod_name}.{attr}"
        owner = sys.modules[f"wasslab.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, wrap(name, getattr(cls, meth), spent, calls))
            continue
        fn = getattr(owner, attr)
        timed = wrap(name, fn, spent, calls)
        for mod in modules + [wl]:  # every module that imported the function by name
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, timed)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", nargs="?", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=37)
    args = ap.parse_args()
    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import wasslab as wl
    import workloads

    names = [f"{m}.{a}" for m, a in PRIMITIVES]
    spent, calls = dict.fromkeys(names, 0), dict.fromkeys(names, 0)
    install(wl, spent, calls)
    work = workloads.build("verdicts", args.seed)
    best = dict.fromkeys(names, None)
    best_pass = None
    for r in range(args.rounds):
        work.start_round(r)
        for name in names:
            spent[name] = calls[name] = 0
        t0 = time.perf_counter_ns()
        for k in range(len(work.items)):
            try:
                work.call(k)()
            except wl.WasslabError:
                pass
        elapsed = time.perf_counter_ns() - t0
        best_pass = elapsed if best_pass is None else min(best_pass, elapsed)
        for name in names:
            if best[name] is None or spent[name] < best[name][0]:
                best[name] = (spent[name], calls[name])
    out = {"tree": str(tree), "seed": args.seed, "rounds": args.rounds,
           "pass_ms": round(best_pass / 1e6, 3), "primitives": {}}
    for name in names:
        ns, n = best[name]
        out["primitives"][name] = {"calls": n, "us_per_call": round(ns / max(n, 1) / 1e3, 2),
                                   "ms": round(ns / 1e6, 3)}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
