"""Command-line interface: one binary exposing all pipelines.

Each ``cmd_*`` handler computes its result and returns it as a dict
(``sample`` writes its own JSON-lines file and returns None).  One runner
then writes the result to ``--out`` and a manifest ``<out>.manifest.json``
echoing the fully resolved configuration, the seed, the worker count and
the code version.  Result files contain no timestamps, so identical
configurations produce bit-identical outputs regardless of the worker
count; the manifest carries the timestamp.

``COMMANDS`` describes each command once: handler, help and options.  A
call builds the parser of the invoked command only; help, version and
top-level errors come from the full parser, so they list every command.

Exit codes: 0 success, 1 numerical failure (diagnostic on stderr),
2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys

import numpy as np

from . import __version__
from . import concentration_harness as ch
from . import dirac_spectrum as ds
from . import flow_lab as fl
from . import gibbs_sampler as gs
from . import hessian_convexity as hc
from . import hill_spectrum as hs
from .floquet import NUMERICAL_FAILURES, TAYLOR_ORDER
from .fourier_field import field_to_json, l2_norm_sq, load_field


def _default_seed() -> int:
    return int(os.environ.get("GIBBSLAB_SEED", "42"))


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list[str], *columns) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([repr(float(x)) for x in row])


def run(args: argparse.Namespace) -> int:
    """Run the parsed subcommand, then write its result and its manifest."""
    result = COMMANDS[args.command][0](args)
    if result is not None:
        write_json(args.out, result)
    # the transfer-matrix discretisation; the step counts of commands with
    # --steps are in the config, those of the built-in statistics are not
    integrator = {"method": "taylor", "order": TAYLOR_ORDER}
    if args.command == "concentration":
        integrator["statistic_steps"] = {"dirac": ch.DIRAC_STEPS, "hill": ch.HILL_STEPS}
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "command"},
        "seed": args.seed,
        "workers": getattr(args, "workers", 1),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "integrator": integrator,
    }
    write_json(args.out + ".manifest.json", manifest)
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_sample(args) -> None:
    params = gs.GibbsParams(
        p=args.p,
        beta=args.beta,
        ball_radius=args.ball,
        cutoff=args.cutoff,
        kind=args.kind,
        holder_gamma=args.gamma,
        holder_bound=args.holder_k,
        pi_periodic=args.pi_periodic,
    )
    if args.method == "importance":
        ens = gs.importance_ensemble(args.count, params, args.seed)
    else:
        ens = gs.mcmc_ensemble(args.count, args.step_size, params, args.seed)
    gs.save_ensemble_jsonl(ens, args.out)


def cmd_dirac_spectrum(args) -> dict:
    field = load_field(args.field)
    # one closure serves both passes and the trace
    disc = ds.discriminant_batch(field, args.steps)
    data = ds.spectral_data_from(field, disc, tuple(args.window), refine_tol=args.tol)
    out = data.to_json()
    out["potential_hash"] = field.content_hash()
    if args.trace_csv:
        grid = np.linspace(args.window[0], args.window[1], 481)
        vals = disc(grid)
        _write_csv(args.trace_csv, ["lambda", "re_delta", "im_delta"], grid, vals.real, vals.imag)
    return out


def cmd_hill_spectrum(args) -> dict:
    field = load_field(args.field)
    data = hs.hill_periodic_spectrum(
        field, args.lambda_max, tol=args.tol, steps=args.steps
    )
    out = data.to_json()
    out["potential_hash"] = field.content_hash()
    out["gap_summability"] = hs.gap_summability_report(data)
    return out


def cmd_statistic(args) -> dict:
    field = load_field(args.field)
    g = ds.parse_test_function(args.g)
    window = (args.window[0], args.window[1])
    if args.method == "contour" and args.centers == "auto":
        # circles on the field's critical points, integrated on the disk
        # models of their |Delta'| checks, as the dirac:critical statistic does
        crit = ds.critical_points(field, window, steps=args.steps)
        value = ds.contour_statistic(
            crit.critical_models, crit.critical_points, g, radius=args.radius, kernel=args.kernel
        )
    elif args.method == "contour":
        centers = [float(c) for c in args.centers.split(",")]
        value = ds.linear_statistic_contour(
            field, g, centers, radius=args.radius, kernel=args.kernel, steps=args.steps
        )
    else:
        if args.kernel != "critical":
            raise ValueError("direct statistics are implemented for critical points")
        data = ds.critical_points(field, window, steps=args.steps)
        value = ds.linear_statistic_direct(
            np.array(data.critical_points), g, args.index_range
        )
    return {
        "method": args.method,
        "kernel": args.kernel,
        "test_function": g.name,
        "value": value,
        "window": list(window),
        "index_range": args.index_range,
        "potential_hash": field.content_hash(),
    }


def cmd_borg_check(args) -> dict:
    field = load_field(args.field)
    lam_max = (args.n_max + 0.6) ** 2
    data = hs.hill_periodic_spectrum(field, lam_max, steps=args.steps)
    report = hs.borg_check(field, data, args.n_max)
    out = report.to_json()
    out["period_convention"] = data.period_convention
    out["potential_hash"] = field.content_hash()
    return out


def cmd_frame_bounds(args) -> dict:
    field = load_field(args.field)
    lam_max = (args.range + 0.6) ** 2
    data = hs.hill_periodic_spectrum(field, lam_max, steps=args.steps)
    est = hs.frame_bounds_estimate(data.two_sided_t(args.range), args.range, args.family)
    out = est.to_json()
    out["period_convention"] = data.period_convention
    out["potential_hash"] = field.content_hash()
    return out


def _parse_index_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def cmd_pw_statistic(args) -> dict:
    field = load_field(args.field)
    records = hs.pw_statistic_contour(field, _parse_index_range(args.n), steps=args.steps)
    return {
        "records": records,
        "period_convention": hs.PERIOD_CONVENTION,
        "potential_hash": field.content_hash(),
    }


def cmd_convexity(args) -> dict:
    params = gs.GibbsParams(
        p=args.p,
        beta=args.beta,
        ball_radius=args.ball,
        cutoff=args.cutoff,
        kind="nls",
        holder_gamma=args.gamma,
        holder_bound=args.holder_k,
    )
    ens = gs.importance_ensemble(args.samples, params, args.seed)
    cparams = hc.ConvexityParams(delta=args.delta, gamma=args.gamma, holder_bound=args.holder_k)
    items = [
        hc.certify_convexity(
            args.functional, f, args.beta, args.p, args.ball, cparams, weight=args.weight
        ).to_json()
        for f in ens.samples
    ]
    return {
        "functional": args.functional,
        "weight": args.weight,
        "params": {
            "delta": args.delta,
            "gamma": args.gamma,
            "c_gamma": cparams.c_gamma,
            "c_delta": cparams.c_delta,
            "kappa": cparams.kappa,
            "kappa_p": cparams.kappa_p,
            "holder_bound": args.holder_k,
            "constants_heuristic": True,
        },
        "reports": items,
        "all_certified": all(r["certified"] for r in items),
        "min_eigenvalue": min(r["min_eigenvalue"] for r in items),
        "lsi_lower_bound": min(r["lsi_lower_bound"] for r in items),
    }


def _flow_steps(time: float, dt: float) -> int:
    if dt == 0.0 or not np.isfinite(time / dt):
        raise ValueError(f"--time {time:g} over --dt {dt:g} is not a finite step count")
    steps = int(round(time / dt))
    if steps < 1:
        raise ValueError(f"--time {time:g} over --dt {dt:g} is {steps} steps, fewer than 1")
    return steps


def cmd_flow(args) -> dict:
    field = load_field(args.field)
    cutoff = args.cutoff or field.cutoff
    steps = _flow_steps(args.time, args.dt)
    params = fl.FlowParams(p=args.p, beta=args.beta, dt=args.dt, steps=steps, cutoff=cutoff)
    traj = fl.evolve_trajectory(field, params, snapshots=args.snapshots)
    final = traj[-1].with_cutoff(cutoff)
    return {
        "conservation": fl.conservation_check(traj, args.p, args.beta),
        "cutoff": cutoff,
        "time": params.total_time,
        "dt": args.dt,
        "final_field": field_to_json(final),
        # mass of the evolved grid state beyond the written cutoff
        "final_field_dropped_mass": l2_norm_sq(traj[-1]) - l2_norm_sq(final),
    }


def _observables_from_spec(spec: str, p: float) -> dict:
    out = {}
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        if name == "V":
            name = f"V:p={p:g}"
        elif name.startswith("stat:"):
            name = "dirac:critical:" + name[5:] + ":M=2"
        key, fn = ch.make_statistic(name)
        out[key] = fn
    return out


def cmd_invariance(args) -> dict:
    ens = gs.load_ensemble_jsonl(args.ensemble)
    steps = _flow_steps(args.time, args.dt)
    cutoff = args.cutoff or ens.params.cutoff
    params = fl.FlowParams(
        p=ens.params.p, beta=ens.params.beta, dt=args.dt, steps=steps, cutoff=cutoff
    )
    observables = _observables_from_spec(args.observables, ens.params.p)
    report = fl.invariance_check(
        ens, params, observables, seed=args.seed, permutations=args.permutations
    )
    return report.to_json()


def _parse_t_grid(spec: str) -> np.ndarray:
    lo, hi, n = spec.split(":")
    grid = np.linspace(float(lo), float(hi), int(n))
    scale = max(abs(float(lo)), abs(float(hi)), 1e-300)
    grid[np.abs(grid) < 1e-12 * scale] = 0.0
    return grid


def cmd_concentration(args) -> dict:
    ens = gs.load_ensemble_jsonl(args.ensemble)
    sample = ch.collect_statistic(ens, args.statistic)
    t_grid = _parse_t_grid(args.t_grid) if args.t_grid else None
    report = ch.concentration_report(
        sample, t_grid, eta_bound=args.eta_bound, bootstrap=args.bootstrap, seed=args.seed
    )
    if args.curve_csv:
        curve = report.curve
        _write_csv(args.curve_csv, ["t", "log_mgf", "stderr"], curve.t, curve.value, curve.stderr)
    return report.to_json()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Each command once: name -> (handler, help, own options, trailing options).
# A subparser takes its own options, then --out and --seed, then the trailing.
_FIELD = ("--field", dict(required=True))
_P = ("--p", dict(type=float, default=4.0))
_BETA = ("--beta", dict(type=float, default=-1.0))
_TOL = ("--tol", dict(type=float, default=1e-8, help="truncation bound of every periodic "
                     "point; residuals above max(100 tol, 1e-6) fail"))
_OUT = ("--out", dict(required=True, help="output JSON path"))
# recorded in the manifest only: evaluation runs in one thread
_WORKERS = ("--workers", dict(type=int, default=1))
_DIRAC_STEPS = ("--steps", dict(type=int, default=ds.DEFAULT_STEPS, help="integrator steps"))
_HILL_STEPS = ("--steps", dict(type=int, default=hs.DEFAULT_STEPS, help="integrator steps"))

COMMANDS = {
    "sample": (cmd_sample, "draw a Gibbs ensemble", [
        ("--kind", dict(choices=["nls", "kdv"], default="nls")),
        _P, _BETA,
        ("--ball", dict(type=float, required=True, help="L2 mass bound N")),
        ("--cutoff", dict(type=int, required=True)),
        ("--count", dict(type=int, required=True)),
        ("--method", dict(choices=["importance", "mcmc"], default="importance")),
        ("--step-size", dict(type=float, default=0.3)),
        ("--gamma", dict(type=float, help="Holder exponent")),
        ("--holder-k", dict(type=float, help="Holder bound K")),
        ("--pi-periodic", dict(action="store_true")),
    ], []),
    "dirac-spectrum": (cmd_dirac_spectrum, "Dirac periodic and critical points", [
        _FIELD,
        ("--window", dict(type=float, nargs=2, required=True)),
        _TOL,
        ("--trace-csv", dict(help="optional discriminant trace CSV")),
    ], [_DIRAC_STEPS]),
    "hill-spectrum": (cmd_hill_spectrum, "Hill eigenvalues, gaps and midpoints", [
        _FIELD,
        ("--lambda-max", dict(type=float, required=True)),
        _TOL,
    ], [_HILL_STEPS]),
    "statistic": (cmd_statistic, "linear statistic, direct or contour", [
        _FIELD,
        ("--method", dict(choices=["contour", "direct"], required=True)),
        ("--g", dict(required=True, help="test function, e.g. builtin:lorentzian:c=3")),
        ("--centers", dict(default="auto", help="comma-separated real contour centers, or "
                           "'auto' for the field's critical points in --window")),
        ("--kernel", dict(choices=["critical", "plus", "minus"], default="critical")),
        ("--radius", dict(type=float, default=0.2)),
        ("--window", dict(type=float, nargs=2, default=[-3.5, 3.5])),
        ("--index-range", dict(type=int, default=3)),
    ], [_DIRAC_STEPS]),
    "borg-check": (cmd_borg_check, "midpoint margins under smallness hypotheses", [
        _FIELD,
        ("--n-max", dict(type=int, default=10)),
    ], [_HILL_STEPS]),
    "frame-bounds": (cmd_frame_bounds, "sampling frame bounds of the midpoints", [
        _FIELD,
        ("--range", dict(type=int, default=10, help="two-sided index range J")),
        ("--family", dict(type=int, default=64)),
    ], [_HILL_STEPS]),
    "pw-statistic": (cmd_pw_statistic, "midpoint squares by Cauchy circles", [
        _FIELD,
        ("--n", dict(default="1..4", help="index range, e.g. 1..8")),
    ], [_HILL_STEPS]),
    "convexity": (cmd_convexity, "certify uniform convexity on sampled fields", [
        _P, _BETA,
        ("--ball", dict(type=float, default=1.0)),
        ("--holder-k", dict(type=float, default=5.0)),
        ("--cutoff", dict(type=int, default=8)),
        ("--samples", dict(type=int, default=50)),
        ("--functional", dict(choices=["H", "H_K", "G_N"], default="G_N")),
        ("--weight", dict(choices=["l2", "h1", "h_delta"], default="h1")),
        ("--delta", dict(type=float, default=0.75)),
        ("--gamma", dict(type=float, default=0.3)),
    ], [_WORKERS]),
    "flow": (cmd_flow, "evolve a field and report conservation", [
        _FIELD, _P, _BETA,
        ("--dt", dict(type=float, required=True)),
        ("--time", dict(type=float, required=True)),
        ("--cutoff", dict(type=int)),
        ("--snapshots", dict(type=int, default=8)),
    ], []),
    "invariance": (cmd_invariance, "distribution drift of observables under the flow", [
        ("--ensemble", dict(required=True)),
        ("--time", dict(type=float, required=True)),
        ("--dt", dict(type=float, default=1e-3)),
        ("--cutoff", dict(type=int)),
        ("--observables", dict(default="l2,V")),
        ("--permutations", dict(type=int, default=200)),
    ], [_WORKERS]),
    "concentration": (cmd_concentration, "log-MGF curve and sub-Gaussian fit", [
        ("--ensemble", dict(required=True)),
        ("--statistic", dict(required=True)),
        ("--t-grid", dict(help="lo:hi:points, symmetric around 0, e.g. --t-grid=-2:2:41")),
        ("--eta-bound", dict(type=float)),
        ("--bootstrap", dict(type=int, default=200)),
        ("--curve-csv", dict()),
    ], [_WORKERS]),
}


def build_parser(*names: str) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of ``names``, or of every command."""
    ap = argparse.ArgumentParser(
        prog="gibbslab",
        description="Random periodic potentials, their Dirac/Hill spectral data, "
        "convexity certificates and concentration diagnostics.",
    )
    ap.add_argument("--version", action="version", version=f"gibbslab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    # read at each build, so GIBBSLAB_SEED set after import takes effect
    seed = ("--seed", dict(type=int, default=_default_seed()))
    for name in names or COMMANDS:
        _, help_text, options, trailing = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in (*options, _OUT, seed, *trailing):
            sp.add_argument(flag, **kwargs)
    return ap


def _parse(argv: list[str]) -> argparse.Namespace:
    # help, version, no or an unknown command and unrecognised arguments go
    # to the full parser, whose text lists every command
    if argv and argv[0] in COMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv)
        if not rest:
            return args
    return build_parser().parse_args(argv)


def _join_t_grid(argv: list[str]) -> list[str]:
    """Rewrite '--t-grid -1:1:21' as '--t-grid=-1:1:21'.

    argparse reads a separate value that starts with '-' and is not a
    plain number as a flag, and a symmetric grid always starts with '-'.
    """
    out: list[str] = []
    args = iter(argv)
    for a in args:
        if a == "--t-grid":
            value = next(args, None)
            out.append(a if value is None else f"{a}={value}")
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    argv = _join_t_grid(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse uses 2 for bad flags, 0 for --help
        return int(exc.code or 0)
    try:
        return run(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
