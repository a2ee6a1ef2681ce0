"""Scenario runners and report emission for the command-line front end.

Three named scenarios exercise the package end to end:

* ``ex5``: escaping two-atom mixtures whose distance to the origin Dirac is
  exactly n, and whose geodesic sphere cuts never cluster, so the
  compactness diagnostic must FAIL.
* ``ex3``: the same family at p=2 induces distance fields whose limit is the
  zero constant; the limit fails the sphere-calibration test even though
  every finite-n field passes.
* ``lift-demo``: a lifted min-of-three-horizons field with every verification
  tool expected to PASS.

The escaping family's computations are defined once here; the ex3/ex5
runners and acceptance criteria C03-C06 both call them and format the results.

Reports are deterministic given the configuration: the same config produces
identical numeric cells, and emitting the same Report twice produces
byte-identical files (the timestamp field is excluded from comparisons).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .base_space import BusemannField, MinField
from .discrete_measure import (
    DiscreteMeasure,
    MeasureSetSequence,
    dirac,
    random_measure,
    validate_measure,
)
from .errors import (
    DescentStalled,
    DomainError,
    InvalidMeasure,
    IoError,
    ParseError,
    WasslabError,
)
from .ot_exact import wasserstein_exact
from .viscosity import (
    ConstantField,
    FAIL,
    PASS,
    SphereTestResult,
    dlg_test,
    greedy_descent,
    lift,
    lifted_ray,
    lipschitz_probe,
    representation_check,
    viscosity_sphere_test,
)
from .wgeom import cs_diagnostic, dlc_limit


def escaping_mixture(n: int, p: float) -> DiscreteMeasure:
    """(1 - n^-p) delta_0 + n^-p delta_{n^2} on the line; at distance n from delta_0."""
    if n < 1:
        raise DomainError(f"index n={n} must be at least 1")
    w_far = n ** (-float(p))
    return validate_measure([[0.0], [float(n) ** 2]], [1.0 - w_far, w_far])


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    p: float = 2.0
    seed: int = 0
    tol: float = 1e-6
    n_max: int = 200


@dataclass
class Report:
    scenario: str
    tables: dict = field(default_factory=dict)    # name -> {"columns": [...], "rows": [...]}
    verdicts: dict = field(default_factory=dict)
    stamp: dict = field(default_factory=dict)
    expected_ok: bool = True


def _finite_number(text: str) -> float:
    """A JSON number's value; NaN, Infinity and -Infinity, and overflows such as 1e999, refused."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite JSON number")
    return x


def read_json(path):
    """Parse a JSON file; IoError when it cannot be read, ParseError when malformed."""
    try:
        text = Path(path).read_bytes()  # json decodes it, so a bad encoding is a ValueError
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ParseError(f"{path}: {exc}") from exc


def load_measures(path) -> list[DiscreteMeasure]:
    """Read measures from a JSON file: one object, a list, or {"measures": [...]}."""
    obj = read_json(path)
    if isinstance(obj, dict) and "measures" in obj:
        items = obj["measures"]
    elif isinstance(obj, dict):
        items = [obj]
    elif isinstance(obj, list):
        items = obj
    else:
        raise ParseError(f"{path}: expected a measure object or list")
    out = []
    for k, item in enumerate(items):
        if not isinstance(item, dict) or "support" not in item or "weights" not in item:
            raise ParseError(f"measure {k}: expected an object with support and weights")
        try:
            out.append(DiscreteMeasure.from_json_dict(item))
        except WasslabError as exc:
            raise InvalidMeasure(f"measure {k}: {exc}", index=k) from exc
    if not out:
        raise ParseError(f"{path}: no measures found")
    return out


def _fmt_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def emit_report(report: Report, out_dir) -> list[Path]:
    """Write report.json plus one CSV per table; byte-deterministic output."""
    import csv  # here, so that importing the package does not load it
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        doc = {
            "scenario": report.scenario,
            "verdicts": report.verdicts,
            "stamp": report.stamp,
            "expected_ok": bool(report.expected_ok),
            "tables": sorted(report.tables),
        }
        path = out / "report.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        paths.append(path)
        for name in sorted(report.tables):
            table = report.tables[name]
            path = out / f"{report.scenario}_{name}.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(table["columns"])
                writer.writerows([_fmt_cell(x) for x in row] for row in table["rows"])
            paths.append(path)
        return paths
    except OSError as exc:
        raise IoError(f"cannot write report under {out_dir}: {exc}") from exc


def _stamp(cfg: ScenarioConfig) -> dict:
    return {
        "version": __version__,
        "seed": cfg.seed,
        "p": cfg.p,
        "tol": cfg.tol,
        "n_max": cfg.n_max,
        # excluded from determinism comparisons
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def acceptance_report(results) -> Report:
    """Report of the acceptance battery from its (name, passed, detail) triples."""
    report = Report("acceptance", stamp=_stamp(ScenarioConfig("acceptance")))
    report.tables["criteria"] = {
        "columns": ["criterion", "status", "detail"],
        "rows": [[name, PASS if ok else FAIL, detail] for name, ok, detail in results],
    }
    report.verdicts = {name: bool(ok) for name, ok, _ in results}
    report.expected_ok = all(ok for _, ok, _ in results)
    return report


# ---------------------------------------------------------------------------
# the escaping family, computed once for ex3/ex5 and criteria C03-C06
# ---------------------------------------------------------------------------

DISTANCE_TOL = 1e-9       # budget for |W_p(escaping_mixture(n, p), delta_0) - n|
CLOSED_FORM_TOL = 1e-10   # budget for |u_n(delta_1) - (sqrt(n^2 - 1) - n)|
ENVELOPE_N0 = 10          # index at which the 1/n envelope is calibrated


def escaping_distances(p: float, n_max: int = 50) -> list[tuple[int, float, float]]:
    """(n, W_p(escaping_mixture(n, p), delta_0), |W_p - n|) for n = 1..n_max."""
    origin = dirac([0.0])
    rows = []
    for n in range(1, n_max + 1):
        w = wasserstein_exact(escaping_mixture(n, p), origin, p).value
        rows.append((n, w, abs(w - n)))
    return rows


def escaping_sphere_cuts(p: float, sigma: float) -> tuple[float, dict]:
    """(smallest pairwise cut distance, verdict run at eps = half of it) of the
    compactness diagnostic on the escaping family's geodesic cuts at sigma."""
    origin = dirac([0.0])

    # the diagnostic needs every element strictly beyond sigma, so the
    # escaping family is probed from index 3 upward
    def seq(k: int) -> DiscreteMeasure:
        return escaping_mixture(k + 2, p)

    probe = cs_diagnostic(seq, sigma, origin, N=60, eps=0.0, K=5, p=p)
    min_gap = probe["min_offdiag"]
    return min_gap, cs_diagnostic(seq, sigma, origin, N=60, eps=min_gap / 2.0, K=5, p=p)


def _vanishing_mixture() -> DiscreteMeasure:
    return validate_measure([[1.0], [-2.0]], [0.5, 0.5])


def _u_n(omega: DiscreteMeasure, n: int) -> float:
    """Distance field of the escaping family; the family is tied to p = 2."""
    return wasserstein_exact(omega, escaping_mixture(n, 2.0), 2.0).value - n


@dataclass(frozen=True)
class VanishingDecay:
    delta1: list            # (n, u_n(delta_1), sqrt(n^2 - 1) - n) for n = 1..100
    delta1_max_err: float
    mix: dict               # n -> u_n at the two-atom mixture
    envelope_ns: range      # indices the 1/n envelope was checked on
    envelope_constant: float
    envelope_ok: bool

    @property
    def delta1_ok(self) -> bool:
        return self.delta1_max_err <= CLOSED_FORM_TOL


def vanishing_decay(n_cap: int = 200) -> VanishingDecay:
    """The escaping family's distance fields u_n vanish at rate 1/n.

    At delta_1, u_n is compared with its closed form for n <= 100. At the
    mixture 1/2 delta_1 + 1/2 delta_{-2}, |u_n| must be non-increasing and
    under C/n for n = 10..max(n_cap, 11), where C is calibrated at n = 10.
    """
    delta1, mix = dirac([1.0]), _vanishing_mixture()
    rows = [(n, _u_n(delta1, n), math.sqrt(n * n - 1.0) - n) for n in range(1, 101)]
    n_hi = max(n_cap, ENVELOPE_N0 + 1)
    at_mix = {n: _u_n(mix, n) for n in range(1, max(n_hi, 100) + 1)}
    # headroom factor 2: n |u_n| increases toward its limit, so the raw n0
    # calibration is not an envelope of the tail
    env_c = 2.0 * ENVELOPE_N0 * abs(at_mix[ENVELOPE_N0])
    ns = range(ENVELOPE_N0, n_hi + 1)
    envelope_ok = all(abs(at_mix[n]) <= env_c / n for n in ns) and all(
        abs(at_mix[n]) <= abs(at_mix[n - 1]) + 1e-12 for n in ns[1:])
    return VanishingDecay(rows, max(abs(u - c) for _, u, c in rows), at_mix, ns,
                          env_c, envelope_ok)


def flat_limit_sphere(seed) -> tuple[SphereTestResult, bool]:
    """Sphere test of the u_n's flat limit at the mixture, and whether it FAILs
    with a calibration gap of at least 0.9 r at every radius r, as expected."""
    res = viscosity_sphere_test(ConstantField(0.0, 2.0), _vanishing_mixture(),
                                radii=(1.0, 0.5, 0.1), eps=1e-3, budget=10, rng=seed)
    gaps_ok = all(rp.best_gap >= 0.9 * rp.radius for rp in res.radii)
    return res, res.verdict == FAIL and gaps_ok


# ---------------------------------------------------------------------------
# ex5: exact escaping distances, failed compactness diagnostic
# ---------------------------------------------------------------------------

def _run_ex5(cfg: ScenarioConfig) -> Report:
    report = Report("ex5", stamp=_stamp(cfg))
    rows = escaping_distances(cfg.p, min(50, cfg.n_max))
    report.tables["distances"] = {"columns": ["n", "wp", "abs_err"],
                                  "rows": [[n, float(w), float(err)] for n, w, err in rows]}
    max_err = max((err for *_, err in rows), default=0.0)
    distances_ok = max_err <= DISTANCE_TOL

    min_gap, verdict = escaping_sphere_cuts(cfg.p, 1.0)
    mat = np.asarray(verdict["matrix"])
    report.tables["sphere_matrix"] = {
        "columns": [f"d{j}" for j in range(mat.shape[1])],
        "rows": [[float(x) for x in row] for row in mat],
    }
    cs_ok = verdict["verdict"] == FAIL and min_gap > 0.0

    report.verdicts = {
        "distances_exact": bool(distances_ok),
        "distances_max_err": float(max_err),
        "cs_verdict": verdict["verdict"],
        "cs_expected": FAIL,
        "cs_min_offdiag": float(min_gap),
        "cs_eps": float(min_gap / 2.0),
    }
    report.expected_ok = bool(distances_ok and cs_ok)
    return report


# ---------------------------------------------------------------------------
# ex3: pointwise-vanishing distance fields whose limit is not unit-slope
# ---------------------------------------------------------------------------

def _run_ex3(cfg: ScenarioConfig) -> Report:
    if cfg.p != 2.0:
        raise DomainError(f"ex3 is defined at p = 2 only, got p = {cfg.p:g}")
    report = Report("ex3", stamp=_stamp(cfg))
    decay = vanishing_decay(min(cfg.n_max, 200))
    report.tables["decay"] = {
        "columns": ["n", "u_n_at_delta1", "closed_form", "u_n_at_mix"],
        "rows": [[n, float(u), float(closed), float(decay.mix[n])]
                 for n, u, closed in decay.delta1 if n % 10 == 0 or n == 1],
    }

    # the same family as a distance-limit probe: the trace converges to 0
    seq = MeasureSetSequence(lambda n: [escaping_mixture(n, 2.0)], lambda n: float(n))
    dlc_value, dlc_converged, dlc_samples = dlc_limit(seq, dirac([1.0]), 2.0, tol=cfg.tol,
                                                      n_max=max(cfg.n_max, 64))
    report.tables["dlc_trace"] = {
        "columns": ["n", "a_n"],
        "rows": [[n, float(a)] for n, a in dlc_samples],
    }

    # log-log fit of |u_n(mix)|: the decay exponent should sit near -1
    ns = np.array(decay.envelope_ns)
    decay_slope = float(np.polyfit(np.log(ns), np.log([abs(decay.mix[n]) for n in ns]), 1)[0])
    decay_ok = abs(decay_slope + 1.0) <= 0.1

    sphere, sphere_ok = flat_limit_sphere(cfg.seed)

    report.verdicts = {
        "delta1_closed_form_ok": bool(decay.delta1_ok),
        "delta1_max_err": float(decay.delta1_max_err),
        "envelope_ok": bool(decay.envelope_ok),
        "envelope_constant": float(decay.envelope_constant),
        "decay_slope": decay_slope,
        "decay_fit_ok": bool(decay_ok),
        "dlc_value": float(dlc_value),
        "dlc_converged": bool(dlc_converged),
        "limit_sphere_verdict": sphere.verdict,
        "limit_sphere_expected": FAIL,
        "limit_sphere_gaps": [float(rp.best_gap) for rp in sphere.radii],
    }
    report.expected_ok = bool(decay.delta1_ok and decay.envelope_ok and decay_ok
                              and sphere_ok)
    return report


# ---------------------------------------------------------------------------
# lift-demo: a lifted min-of-horizons field passing the full toolkit
# ---------------------------------------------------------------------------

def lift_demo_field(seed: int = 0, p: float = 2.0):
    """Lift of a minimum of three unit-direction horizon fields on R^2."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=3)
    offsets = rng.uniform(-1.0, 1.0, size=3)
    members = tuple(
        BusemannField(np.array([np.cos(a), np.sin(a)]), float(c))
        for a, c in zip(angles, offsets)
    )
    return lift(MinField(members), p)


RAY_DROP_TOL = 1e-10      # budget for |U(ray(0)) - U(ray(dt)) - dt|
RAY_SPAN_TOL = 1e-8       # budget for |W_p(ray(0), ray(dt)) - dt|
RAY_DTS = (1.0, 5.0, 10.0)  # arc lengths at which a lifted ray is calibrated


def lifted_ray_calibration(U, measures) -> list[tuple]:
    """(k, dt, drop_err, span_err) along the lifted ray of U from measures[k]:
    the errors of the value drop and of the certified span against dt. The
    lift-demo table and criterion C07 both come from it."""
    rows = []
    for k, omega in enumerate(measures):
        ray = lifted_ray(U, omega)
        start = ray.eval(0.0)
        for dt in RAY_DTS:
            moved = ray.eval(dt)
            drop_err = abs(U.evaluate(start) - U.evaluate(moved) - dt)
            span_err = abs(wasserstein_exact(start, moved, U.p).value - dt)
            rows.append((k, dt, float(drop_err), float(span_err)))
    return rows


def _run_lift_demo(cfg: ScenarioConfig) -> Report:
    report = Report("lift-demo", stamp=_stamp(cfg))
    p = cfg.p
    rng = np.random.default_rng(cfg.seed)
    U = lift_demo_field(cfg.seed, p)
    corpus = [random_measure(rng, 6, 2, box=3.0) for _ in range(8)]

    pairs = [(corpus[i], corpus[j]) for i in range(len(corpus)) for j in range(i + 1, len(corpus))]
    ratio = lipschitz_probe(U, pairs)
    probe_ok = ratio <= 1.0 + 1e-9

    cal_rows = lifted_ray_calibration(U, corpus[:4])
    cal_ok = all(drop_err <= RAY_DROP_TOL and span_err <= RAY_SPAN_TOL
                 for *_, drop_err, span_err in cal_rows)
    report.tables["calibration"] = {
        "columns": ["measure", "dt", "drop_err", "span_err"],
        "rows": cal_rows,
    }

    sphere_ok = True
    for omega in corpus[:4]:
        res = viscosity_sphere_test(U, omega, radii=(1.0, 0.5, 0.1),
                                    eps=1e-3, budget=6, rng=rng)
        sphere_ok = sphere_ok and res.verdict == PASS

    descent_ok = True
    try:
        poly = greedy_descent(U, corpus[0], eps=1e-2, steps=20,
                              step_length=1.0, budget=6, rng=rng)
        descent_ok = poly.check_inequality() and poly.observed_slack() <= 1e-2
    except DescentStalled:
        descent_ok = False

    base_val = U.evaluate(corpus[1])
    dlg = dlg_test(U, corpus[1], levels=(base_val - 1.0, base_val - 10.0),
                   budget=6, rng=rng)
    dlg_ok = dlg.verdict == PASS

    rays = [lifted_ray(U, m) for m in corpus[2:6]]
    rep_ok = True
    for omega in corpus[:2]:
        rep = representation_check(U, omega, rays)
        rep_ok = rep_ok and rep["verdict"] == PASS

    report.verdicts = {
        "lipschitz_ratio": float(ratio),
        "lipschitz_ok": bool(probe_ok),
        "ray_calibration_ok": bool(cal_ok),
        "sphere_all_pass": bool(sphere_ok),
        "descent_ok": bool(descent_ok),
        "dlg_verdict": dlg.verdict,
        "representation_ok": bool(rep_ok),
    }
    report.expected_ok = bool(probe_ok and cal_ok and sphere_ok and descent_ok
                              and dlg_ok and rep_ok)
    return report


_RUNNERS = {
    "ex5": _run_ex5,
    "ex3": _run_ex3,
    "lift-demo": _run_lift_demo,
}


def run_scenario(cfg: ScenarioConfig) -> Report:
    """Run a named scenario and return its report."""
    if cfg.scenario not in _RUNNERS:
        raise ParseError(f"unknown scenario {cfg.scenario!r}; pick from {sorted(_RUNNERS)}")
    return _RUNNERS[cfg.scenario](cfg)
