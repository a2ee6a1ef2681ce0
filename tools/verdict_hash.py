#!/usr/bin/env python3
"""One digest over every result of the benchmark's `verdicts` items.

    python3 tools/verdict_hash.py [TREE]

Imports wasslab from TREE/src and the workloads from TREE/perfbench (TREE
defaults to this checkout), runs every `verdicts` item for seeds 1 and 7,
rounds 0 to 5, and prints one JSON object with the number of calls and one
sha256 over their results. A result is serialized field by field, floats
as hex and arrays by dtype and bytes; a raise is recorded by its type and,
for a stalled descent, its step, gap and refuter. Running it on two
checkouts tells whether a change moved any verdict output, bit for bit.
Nothing under TREE is written.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

SEEDS = (1, 7)
ROUNDS = range(6)


def serialize(obj) -> str:
    """obj as text, floats as hex, recursing through dataclasses, sequences and dicts."""
    if obj is None or isinstance(obj, (bool, str)):
        return repr(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.ndarray):
        return f"{obj.dtype.str}{obj.shape}:{obj.tobytes().hex()}"
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__ + "(" + ",".join(
            f"{f.name}={serialize(getattr(obj, f.name))}" for f in dataclasses.fields(obj)) + ")"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(serialize(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k!r}:{serialize(v)}" for k, v in sorted(obj.items())) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def record(wl, run) -> bytes:
    """The result of one verdict call, or what it raised, as bytes."""
    try:
        out = serialize(run())
    except wl.errors.WasslabError as exc:  # a stalled descent is an expected outcome
        out = f"raised {type(exc).__name__} " + serialize(
            [getattr(exc, name, None) for name in ("step", "best_gap", "refuter")])
    return (out + "\n").encode()


def main(argv: list[str]) -> int:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    sys.dont_write_bytecode = True  # TREE is only read
    import wasslab as wl
    import workloads

    for mod, home in ((wl, tree / "src" / "wasslab"), (workloads, tree / "perfbench")):
        if Path(mod.__file__).resolve().parent != home:
            raise SystemExit(f"{mod.__name__} imported from {mod.__file__}, not from {home}")
    digest, calls = hashlib.sha256(), 0
    with np.errstate(all="ignore"):
        for seed in SEEDS:
            work = workloads.build("verdicts", seed)
            for r in ROUNDS:
                work.start_round(r)
                for k in range(len(work.items)):
                    digest.update(work.item_name(k).encode() + b" " + record(wl, work.call(k)))
                    calls += 1
    print(json.dumps({"count": calls, "sha256": digest.hexdigest()}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
