"""Command-line front end.

One subcommand per capability: `wp` (distances), `geodesic` (interpolation),
`busemann`, `slope`, `check-viscosity`, `descend` (all driven by a JSON
config), `reproduce` for the named scenarios, and `acceptance` for the full
criteria battery. Each subcommand takes only the shared flags it reads:
`--p` all but acceptance, `--tol` busemann and reproduce, `--seed` slope,
check-viscosity, descend and reproduce, `--n-max` reproduce, `--out`
reproduce and acceptance. Exit code 0 means every expected verdict
matched; malformed input exits 2 with one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import run_all
from .discrete_measure import DiscreteMeasure
from .errors import DescentStalled, DomainError, ParseError, WasslabError, is_number
from .ot_exact import wasserstein_exact
from .scenarios import (
    ScenarioConfig,
    acceptance_report,
    emit_report,
    load_measures,
    read_json,
    run_scenario,
)
from .viscosity import (
    dlg_test,
    drop_json,
    gap_json,
    global_slope_estimate,
    greedy_descent,
    lifted_ray,
    local_slope_estimate,
    measure_field_from_config,
    viscosity_sphere_test,
)
from .wgeom import busemann_estimate, displacement_path


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _load_config(path: str) -> dict:
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    return cfg


def _number(cfg: dict, key: str, default) -> float:
    """Config entry `key` as a float; a value of another JSON type is a ParseError.

    Counts (`budget`, `steps`) pass through too: the verdicts' `check_count`
    refuses one that is not a whole number from 1 to `MAX_COUNT`.
    """
    value = cfg.get(key, default)
    if not is_number(value):
        raise ParseError(f"config entry {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ParseError(f"config entry {key!r} is out of range: {value!r}") from exc


def _numbers(cfg: dict, key: str, default) -> tuple:
    """Config entry `key`, which must be a list of numbers, as given."""
    values = cfg.get(key, default)
    if not isinstance(values, (list, tuple)) or not all(map(is_number, values)):
        raise ParseError(f"config entry {key!r} must be a list of numbers, got {values!r}")
    return tuple(values)


def _field(cfg: dict, p: float):
    if "field" not in cfg:
        raise ParseError("config is missing the 'field' entry")
    return measure_field_from_config(cfg["field"], p)


def _pair(args) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    measures = load_measures(args.measures)
    for flag, k in (("--i", args.i), ("--j", args.j)):
        if not 0 <= k < len(measures):
            raise DomainError(f"{flag} {k} is out of range: "
                              f"{args.measures} holds {len(measures)} measures")
    return measures[args.i], measures[args.j]


def _measure(cfg: dict, key: str) -> DiscreteMeasure:
    if key not in cfg:
        raise ParseError(f"config is missing the {key!r} measure")
    return DiscreteMeasure.from_json_dict(cfg[key])


def _cmd_wp(args) -> int:
    res = wasserstein_exact(*_pair(args), args.p)
    _print_json(res.to_json_dict())
    return 0


def _cmd_geodesic(args) -> int:
    # report mode: construction re-certifies endpoints and constant speed
    path = displacement_path(*_pair(args), args.p, check=True)
    t = args.t if args.t is not None else args.frac * path.length
    out = {
        "length": path.length,
        "t": t,
        "degenerate": path.degenerate,
        "nonunique": path.nonunique,
        "measure": path.eval(t).to_json_dict(),
    }
    _print_json(out)
    return 0


def _cmd_busemann(args) -> int:
    cfg = _load_config(args.config)
    U = _field(cfg, args.p)
    ray = lifted_ray(U, _measure(cfg, "start"))
    est = busemann_estimate(ray, _measure(cfg, "omega"),
                            tol=_number(cfg, "tol", args.tol),
                            t_max=_number(cfg, "t_max", 1e6))
    _print_json({
        "op": "busemann",
        "value": est.value,
        "truncation": est.truncation,
        "tail_gap": est.tail_gap,
        "converged": est.converged,
        "trace": [[t, g] for t, g in est.samples],
        "caveat": est.caveat,
    })
    return 0


def _cmd_slope(args) -> int:
    cfg = _load_config(args.config)
    U = _field(cfg, args.p)
    omega = _measure(cfg, "omega")
    local = local_slope_estimate(U, omega,
                                 radii=_numbers(cfg, "radii", (1.0, 0.5, 0.25)),
                                 budget=_number(cfg, "budget", 8), rng=args.seed)
    out = {"op": "slope", "local": local.value}
    if "dictionary" in cfg:
        if not isinstance(cfg["dictionary"], list):
            raise ParseError("config entry 'dictionary' must be a list of measures")
        dictionary = [DiscreteMeasure.from_json_dict(m) for m in cfg["dictionary"]]
        out["global"] = global_slope_estimate(U, omega, dictionary).value
    _print_json(out)
    return 0


def _cmd_check_viscosity(args) -> int:
    cfg = _load_config(args.config)
    U = _field(cfg, args.p)
    omega = _measure(cfg, "omega")
    budget = _number(cfg, "budget", 8)
    res = viscosity_sphere_test(U, omega, radii=_numbers(cfg, "radii", (1.0, 0.5, 0.1)),
                                eps=_number(cfg, "eps", 1e-3), budget=budget, rng=args.seed)
    # both verdicts run before either prints, so bad levels leave stdout empty
    dlg = None
    if "levels" in cfg:
        dlg = dlg_test(U, omega, levels=_numbers(cfg, "levels", ()), budget=budget,
                       rng=args.seed)
    _print_json(res.to_json_dict())
    if dlg is not None:
        _print_json(dlg.to_json_dict())
    return 0 if res.verdict == "PASS" else 1


def _cmd_descend(args) -> int:
    cfg = _load_config(args.config)
    U = _field(cfg, args.p)
    try:
        poly = greedy_descent(U, _measure(cfg, "omega"),
                              eps=_number(cfg, "epsilon", 1e-2),
                              steps=_number(cfg, "steps", 20),
                              step_length=_number(cfg, "step_length", 1.0),
                              budget=_number(cfg, "budget", 8), rng=args.seed)
    except DescentStalled as exc:
        _print_json({"op": "descend", "stalled_at_step": exc.step,
                     "best_gap": gap_json(exc.best_gap), "refuter": drop_json(exc.refuter)})
        return 1
    _print_json({
        "op": "descend",
        "times": list(poly.times),
        "values": list(poly.values),
        "inequality_ok": poly.check_inequality(),
        "observed_slack": poly.observed_slack(),
    })
    return 0


def _cmd_reproduce(args) -> int:
    cfg = ScenarioConfig(scenario=args.scenario, p=args.p, seed=args.seed,
                         tol=args.tol, n_max=args.n_max)
    report = run_scenario(cfg)
    for name, value in sorted(report.verdicts.items()):
        print(f"{name}: {value}")
    if args.out:
        for path in emit_report(report, args.out):
            print(f"wrote {path}")
    print(f"expected verdicts matched: {report.expected_ok}")
    return 0 if report.expected_ok else 1


def _cmd_acceptance(args) -> int:
    results = run_all(args.only)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if args.out:
        for path in emit_report(acceptance_report(results), args.out):
            print(f"wrote {path}")
    return 0 if all(ok for _, ok, _ in results) else 1


_FLAGS = {  # dest -> (flag, type, default, help)
    "p": ("--p", float, 2.0, "Wasserstein exponent (default %(default)s)"),
    "seed": ("--seed", int, 0, "seed for every randomized choice (default %(default)s)"),
    "tol": ("--tol", float, 1e-6, "convergence tolerance (default %(default)s)"),
    "n_max": ("--n-max", int, 200, "index cap for limit probes (default %(default)s)"),
    "out": ("--out", str, None, "directory for report.json and CSV tables"),
}


def _add_flags(sub, *names: str) -> None:
    for name in names:
        flag, type_, default, help_ = _FLAGS[name]
        sub.add_argument(flag, dest=name, type=type_, default=default, help=help_)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wasslab",
        description="Exact optimal transport and unit-slope field verification "
                    "on discrete measures.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("wp", help="exact W_p between two measures from a JSON file")
    sp.add_argument("measures", help="JSON file with the measures")
    sp.add_argument("--i", type=int, default=0, help="index of the first measure")
    sp.add_argument("--j", type=int, default=1, help="index of the second measure")
    _add_flags(sp, "p")
    sp.set_defaults(fn=_cmd_wp)

    sp = subs.add_parser("geodesic", help="evaluate the displacement geodesic")
    sp.add_argument("measures")
    sp.add_argument("--i", type=int, default=0)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--t", type=float, default=None, help="absolute arc length")
    sp.add_argument("--frac", type=float, default=0.5,
                    help="arc-length fraction when --t is absent (default %(default)s)")
    _add_flags(sp, "p")
    sp.set_defaults(fn=_cmd_geodesic)

    sp = subs.add_parser("busemann", help="horizon value of a lifted-field ray")
    sp.add_argument("config", help="JSON config with field, start, omega")
    _add_flags(sp, "p", "tol")
    sp.set_defaults(fn=_cmd_busemann)

    sp = subs.add_parser("slope", help="local (and optional global) slope estimates")
    sp.add_argument("config")
    _add_flags(sp, "p", "seed")
    sp.set_defaults(fn=_cmd_slope)

    sp = subs.add_parser("check-viscosity", help="sphere-calibration test for unit slope")
    sp.add_argument("config")
    _add_flags(sp, "p", "seed")
    sp.set_defaults(fn=_cmd_check_viscosity)

    sp = subs.add_parser("descend", help="budgeted greedy descent of a field")
    sp.add_argument("config")
    _add_flags(sp, "p", "seed")
    sp.set_defaults(fn=_cmd_descend)

    sp = subs.add_parser("reproduce", help="run a named scenario")
    sp.add_argument("scenario", choices=["ex3", "ex5", "lift-demo"])
    _add_flags(sp, "p", "seed", "tol", "n_max", "out")
    sp.set_defaults(fn=_cmd_reproduce)

    sp = subs.add_parser("acceptance", help="run the acceptance criteria battery")
    sp.add_argument("--only", nargs="*", default=None,
                    help="run only criteria whose name contains one of these strings")
    _add_flags(sp, "out")
    sp.set_defaults(fn=_cmd_acceptance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except WasslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
