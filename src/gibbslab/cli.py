"""Command-line interface: one binary exposing all pipelines.

Each ``cmd_*`` handler computes its result and returns it as a dict
(``sample`` writes its own JSON-lines file and returns None).  One runner
then writes the result to ``--out`` and a manifest ``<out>.manifest.json``
echoing the fully resolved configuration, the seed, the worker count and
the code version.  Result files contain no timestamps, so identical
configurations produce bit-identical outputs regardless of the worker
count; the manifest carries the timestamp.

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
    result = args.func(args)
    if result is not None:
        write_json(args.out, result)
    # the transfer-matrix discretisation; the step counts of commands with
    # --steps are in the config, those of the built-in statistics are not
    integrator = {"method": "taylor", "order": TAYLOR_ORDER}
    if args.command == "concentration":
        integrator["statistic_steps"] = {"dirac": ch.DIRAC_STEPS, "hill": ch.HILL_STEPS}
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
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
    data = ds.spectral_data(
        field, (args.window[0], args.window[1]), refine_tol=args.tol, steps=args.steps
    )
    out = data.to_json()
    out["potential_hash"] = field.content_hash()
    if args.trace_csv:
        grid = np.linspace(args.window[0], args.window[1], 481)
        vals = ds.discriminant_batch(field, args.steps)(grid.astype(complex))
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
    if args.centers == "auto":
        lo, hi = int(np.ceil(window[0])), int(np.floor(window[1]))
        centers = np.arange(lo, hi + 1).astype(complex)
    else:
        centers = np.array([complex(float(c)) for c in args.centers.split(",")])
    if args.method == "contour":
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
    records = hs.pw_statistic_contour(
        field, _parse_index_range(args.n), steps=args.steps, radius=args.radius
    )
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
    cparams = hc.ConvexityParams(
        delta=args.delta, gamma=args.gamma or 0.3, holder_bound=args.holder_k
    )

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
            "gamma": args.gamma or 0.3,
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


def cmd_flow(args) -> dict:
    field = load_field(args.field)
    cutoff = args.cutoff or field.cutoff
    steps = max(1, int(round(args.time / args.dt)))
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
    steps = max(1, int(round(args.time / args.dt)))
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

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gibbslab",
        description="Random periodic potentials, their Dirac/Hill spectral data, "
        "convexity certificates and concentration diagnostics.",
    )
    ap.add_argument("--version", action="version", version=f"gibbslab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, func, workers=False, steps=None):
        sp.set_defaults(func=func)
        sp.add_argument("--out", required=True, help="output JSON path")
        sp.add_argument("--seed", type=int, default=_default_seed())
        if workers:
            # recorded in the manifest only: evaluation runs in one thread,
            # and results do not depend on it
            sp.add_argument("--workers", type=int, default=1)
        if steps is not None:
            sp.add_argument("--steps", type=int, default=steps, help="integrator steps")

    sp = sub.add_parser("sample", help="draw a Gibbs ensemble")
    sp.add_argument("--kind", choices=["nls", "kdv"], default="nls")
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--beta", type=float, default=-1.0)
    sp.add_argument("--ball", type=float, required=True, help="L2 mass bound N")
    sp.add_argument("--cutoff", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--method", choices=["importance", "mcmc"], default="importance")
    sp.add_argument("--step-size", type=float, default=0.3)
    sp.add_argument("--gamma", type=float, default=None, help="Holder exponent")
    sp.add_argument("--holder-k", type=float, default=None, help="Holder bound K")
    sp.add_argument("--pi-periodic", action="store_true")
    common(sp, cmd_sample)

    sp = sub.add_parser("dirac-spectrum", help="Dirac periodic and critical points")
    sp.add_argument("--field", required=True)
    sp.add_argument("--window", type=float, nargs=2, required=True)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--trace-csv", default=None, help="optional discriminant trace CSV")
    common(sp, cmd_dirac_spectrum, steps=ds.DEFAULT_STEPS)

    sp = sub.add_parser("hill-spectrum", help="Hill eigenvalues, gaps and midpoints")
    sp.add_argument("--field", required=True)
    sp.add_argument("--lambda-max", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-8)
    common(sp, cmd_hill_spectrum, steps=hs.DEFAULT_STEPS)

    sp = sub.add_parser("statistic", help="linear statistic, direct or contour")
    sp.add_argument("--field", required=True)
    sp.add_argument("--method", choices=["contour", "direct"], required=True)
    sp.add_argument("--g", required=True, help="test function, e.g. builtin:lorentzian:c=3")
    sp.add_argument("--centers", default="auto")
    sp.add_argument("--kernel", choices=["critical", "plus", "minus"], default="critical")
    sp.add_argument("--radius", type=float, default=0.2)
    sp.add_argument("--window", type=float, nargs=2, default=[-3.5, 3.5])
    sp.add_argument("--index-range", type=int, default=3)
    common(sp, cmd_statistic, steps=ds.DEFAULT_STEPS)

    sp = sub.add_parser("borg-check", help="midpoint margins under smallness hypotheses")
    sp.add_argument("--field", required=True)
    sp.add_argument("--n-max", type=int, default=10)
    common(sp, cmd_borg_check, steps=hs.DEFAULT_STEPS)

    sp = sub.add_parser("frame-bounds", help="sampling frame bounds of the midpoints")
    sp.add_argument("--field", required=True)
    sp.add_argument("--range", type=int, default=10, help="two-sided index range J")
    sp.add_argument("--family", type=int, default=64)
    common(sp, cmd_frame_bounds, steps=hs.DEFAULT_STEPS)

    sp = sub.add_parser("pw-statistic", help="midpoint squares by Cauchy circles")
    sp.add_argument("--field", required=True)
    sp.add_argument("--n", default="1..4", help="index range, e.g. 1..8")
    sp.add_argument("--radius", type=float, default=0.25)
    common(sp, cmd_pw_statistic, steps=hs.DEFAULT_STEPS)

    sp = sub.add_parser("convexity", help="certify uniform convexity on sampled fields")
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--beta", type=float, default=-1.0)
    sp.add_argument("--ball", type=float, default=1.0)
    sp.add_argument("--holder-k", type=float, default=5.0)
    sp.add_argument("--cutoff", type=int, default=8)
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--functional", choices=["H", "H_K", "G_N"], default="G_N")
    sp.add_argument("--weight", choices=["l2", "h1", "h_delta"], default="h1")
    sp.add_argument("--delta", type=float, default=0.75)
    sp.add_argument("--gamma", type=float, default=0.3)
    common(sp, cmd_convexity, workers=True)

    sp = sub.add_parser("flow", help="evolve a field and report conservation")
    sp.add_argument("--field", required=True)
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--beta", type=float, default=-1.0)
    sp.add_argument("--dt", type=float, required=True)
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--cutoff", type=int, default=None)
    sp.add_argument("--snapshots", type=int, default=8)
    common(sp, cmd_flow)

    sp = sub.add_parser("invariance", help="distribution drift of observables under the flow")
    sp.add_argument("--ensemble", required=True)
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--cutoff", type=int, default=None)
    sp.add_argument("--observables", default="l2,V")
    sp.add_argument("--permutations", type=int, default=200)
    common(sp, cmd_invariance, workers=True)

    sp = sub.add_parser("concentration", help="log-MGF curve and sub-Gaussian fit")
    sp.add_argument("--ensemble", required=True)
    sp.add_argument("--statistic", required=True)
    sp.add_argument(
        "--t-grid",
        default=None,
        help="lo:hi:points, symmetric around 0, e.g. --t-grid=-2:2:41",
    )
    sp.add_argument("--eta-bound", type=float, default=None)
    sp.add_argument("--bootstrap", type=int, default=200)
    sp.add_argument("--curve-csv", default=None)
    common(sp, cmd_concentration, workers=True)

    return ap


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
    ap = build_parser()
    argv = _join_t_grid(sys.argv[1:] if argv is None else list(argv))
    try:
        args = ap.parse_args(argv)
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
