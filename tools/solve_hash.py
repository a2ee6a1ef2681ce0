#!/usr/bin/env python3
"""Digests of every field of a fixed, seeded battery of `wasserstein_exact` results.

    python3 tools/solve_hash.py [TREE]

Imports wasslab from TREE/src (TREE defaults to this checkout), solves the
battery below and prints one JSON object with two sha256 digests and their
counts: one over the clamp instances, where some pair of atoms lies a
positive distance below `DIST_CLAMP` apart and the solver zeroes it, and
one over the rest. A digest covers each result's value, cost, potentials,
solver name and plan arrays (dtype and bytes), or the type and message of
what the solve raised. Running it on two checkouts tells whether
a change to the solver moved any result, bit for bit, apart from the
instances the clamp makes ambiguous.

The battery draws, per dimension d = 1, 2, 3, `PER_DIM` instances of 1 to
12 atoms a side, p in `EXPONENTS`, coordinates scaled by 1e-3 to 1e3, and
uniform or random weights. One instance in four moves an atom of the target
to within 4e-13 of an atom of the source.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

SEED = 20260
PER_DIM = 4000
EXPONENTS = (1.0, 1.5, 2.0, 3.0, 7.0)


def battery(wl, rng):
    """Yield (mu, nu, p, clamp) for the fixed battery."""
    for d in (1, 2, 3):
        for _ in range(PER_DIM):
            n, m = (int(k) for k in rng.integers(1, 13, size=2))
            p = float(rng.choice(EXPONENTS))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            x = scale * rng.uniform(-1.0, 1.0, (n, d))
            y = scale * rng.uniform(-1.0, 1.0, (m, d))
            if rng.random() < 0.25:
                y[rng.integers(m)] = x[rng.integers(n)] + 4e-13 * rng.choice([-1.0, 1.0], size=d)
            a = np.ones(n) if rng.random() < 0.3 else rng.uniform(0.05, 1.0, n)
            b = np.ones(m) if rng.random() < 0.3 else rng.uniform(0.05, 1.0, m)
            raw = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
            clamp = bool(((raw > 0.0) & (raw < wl.ot_exact.DIST_CLAMP)).any())
            yield (wl.validate_measure(x, a / a.sum()), wl.validate_measure(y, b / b.sum()),
                   p, clamp)


def record(wl, mu, nu, p) -> bytes:
    """Every field of the solve's result, or what it raised, as bytes."""
    try:
        res = wl.wasserstein_exact(mu, nu, p)
    except wl.errors.WasslabError as exc:
        return f"raised {type(exc).__name__}: {exc}\n".encode()
    plan = res.plan
    head = [res.solver, float(res.p).hex(), float(res.value).hex(), float(res.cost).hex(),
            repr([float(v).hex() for v in res.psi])]
    arrays = [f"{arr.dtype.str}:{arr.tobytes().hex()}"
              for arr in (plan.rows, plan.cols, plan.masses)]
    return (" ".join(head + arrays) + "\n").encode()


def main(argv: list[str]) -> int:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(tree / "src"))
    import wasslab as wl
    import wasslab.ot_exact  # noqa: F401  (for DIST_CLAMP)

    if Path(wl.__file__).resolve().parent != tree / "src" / "wasslab":
        raise SystemExit(f"wasslab imported from {wl.__file__}, not from {tree / 'src'}")
    digests = {"clamp": hashlib.sha256(), "rest": hashlib.sha256()}
    counts = {"clamp": 0, "rest": 0}
    with np.errstate(all="ignore"):
        for mu, nu, p, clamp in battery(wl, np.random.default_rng(SEED)):
            kind = "clamp" if clamp else "rest"
            digests[kind].update(record(wl, mu, nu, p))
            counts[kind] += 1
    print(json.dumps({k: {"count": counts[k], "sha256": digests[k].hexdigest()}
                      for k in digests}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
