"""Speed-normalised benchmark of the gibbslab CLI pipelines.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --steadiness --workload NAME --runs K --seconds S

Run from the root of a checkout.  Every operation is one ``gibbslab``
command executed in this process through ``gibbslab.cli.main`` with
``--workers 1``, and BLAS/OpenMP threads pinned to one.  Rounds of the
workload's commands repeat on the same seed-derived inputs until they have
taken ``--seconds`` of normalised time; only whole rounds run.
The first round's outputs are checked against independent oracles, and later rounds must
reproduce them byte for byte.

All times are normalised for machine speed (see ``refclock``).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Run outputs and
trace files go to ``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
BUDGET_MESSAGE = "no full acceptance after"
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import gibbslab.cli as cli; cli.build_parser()"
)


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import gibbslab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import gibbslab
    import gibbslab.cli

    if not os.path.abspath(gibbslab.__file__).startswith(SRC + os.sep):
        fail(f"gibbslab imported from {gibbslab.__file__}, not from {SRC}")
    return gibbslab


class Runner:
    """Executes operations, times them and keeps their records."""

    def __init__(self, clock, cli) -> None:
        self.clock = clock
        self.cli = cli
        self.tracer = None  # a Tracer while a traced round runs
        self.records: list[dict] = []

    def round(self, workdir: str) -> "Round":
        os.makedirs(workdir, exist_ok=True)
        return Round(self, workdir)


class Round:
    def __init__(self, runner: Runner, workdir: str) -> None:
        self.runner = runner
        self.workdir = workdir
        self.records: list[dict] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def op(self, kind: str, argv: list[str], members: int = 0, budget_may_fail: bool = False) -> int:
        runner = self.runner
        err = io.StringIO()
        tracer = runner.tracer
        if tracer is not None:
            tracer.begin_op(len(runner.records))
        with runner.clock.interval() as iv, contextlib.redirect_stderr(err):
            rc = runner.cli.main(argv)  # the root span "cli.main" when traced
        if tracer is not None:
            tracer.end_op(iv.scale)
        if rc == 0:
            outcome = "ok"
        elif rc == 1 and budget_may_fail and BUDGET_MESSAGE in err.getvalue():
            outcome = "failed"
        else:
            outcome = "error"
        rec = {
            "command": argv[0], "kind": kind, "members": members, "rc": rc,
            "outcome": outcome, "stderr": err.getvalue().strip(),
            "raw_s": iv.raw_s, "norm_s": iv.norm_s,
        }
        self.records.append(rec)
        runner.records.append(rec)
        return rc


def measure_setup() -> float:
    """Cold set-up: a fresh interpreter imports gibbslab.cli and builds its parser.

    Returns raw seconds from the child's start to its exit.  The interval is
    too short, and too disturbed by the process start, for kernel samples of
    its own; the caller rescales it by the run's mean kernel time.
    """
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    raw = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"set-up failed: {proc.stderr.decode(errors='replace').strip()}", 3)
    return raw


def round_metrics(records: list[dict], key: str) -> dict:
    """End-to-end metrics of one round's records, from times under ``key``."""
    ens = [r for r in records if r["kind"] == "ensemble"]
    fields = [r for r in records if r["kind"] == "field"]
    return {
        "wall_s": sum(r[key] for r in records),
        "member_ms": 1e3 * sum(r[key] for r in ens) / sum(r["members"] for r in ens),
        "field_s": sum(r[key] for r in fields) / len(fields),
    }


def result_files(workdir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(workdir)):
        if not name.endswith(".manifest.json"):
            with open(os.path.join(workdir, name), "rb") as fh:
                out[name] = fh.read()
    return out


def run(args) -> dict:
    sys.path.insert(0, HERE)
    import refclock
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    round_fn, check_fn = workloads.WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "gibbslab", "cli.py")):
        fail(f"no gibbslab sources under {SRC}")

    setup_raw_s = measure_setup()
    clock = refclock.RefClock()
    clock.start()
    gibbslab = import_program()

    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(clock, gibbslab.cli)
    rounds: list[Round] = []
    traced_rounds: list[tuple[Round, tracer_mod.Tracer]] = []
    notes: dict = {}
    t_start = time.perf_counter()
    try:
        while True:
            k = len(rounds) + len(traced_rounds)
            if args.trace and k >= 1:
                tracer = tracer_mod.Tracer(gibbslab, clock)
                runner.tracer = tracer
                tracer.install()
                try:
                    r = runner.round(os.path.join(workdir, f"round{k}"))
                    round_fn(r, args.seed)
                finally:
                    tracer.uninstall()
                    runner.tracer = None
                traced_rounds.append((r, tracer))
            else:
                r = runner.round(os.path.join(workdir, f"round{k}"))
                round_fn(r, args.seed)
                rounds.append(r)
            # count normalised time, so the number of rounds does not follow
            # the machine's speed of the moment
            elapsed = sum(rec["norm_s"] for rec in runner.records)
            done = len(rounds) + len(traced_rounds)
            need = 2 if args.trace else 1
            if done >= need and elapsed >= args.seconds:
                break
        problems = [f"{rec['command']} exited {rec['rc']}: {rec['stderr'][-300:]}"
                    for rec in runner.records if rec["outcome"] == "error"]
        if not problems:
            try:
                problems += check_fn(rounds[0].workdir, notes)
            except Exception as exc:  # a malformed output is a failed check
                problems.append(f"checking raised {type(exc).__name__}: {exc}")
        reference = result_files(rounds[0].workdir)
        for r in rounds[1:] + [tr for tr, _ in traced_rounds]:
            if result_files(r.workdir) != reference:
                problems.append(f"{os.path.basename(r.workdir)} outputs differ from round0")
        if len(traced_rounds) >= 2:
            a, b = traced_rounds[0][1], traced_rounds[1][1]
            if dict(a.counts) != dict(b.counts) or a.batches != b.batches:
                problems.append("traced work counts differ between two traced rounds")
    finally:
        clock.stop()

    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    attempted = len(runner.records)
    failed = sum(1 for rec in runner.records if rec["outcome"] == "failed")
    per_round = [round_metrics(r.records, "norm_s") for r in rounds]
    per_round_raw = [round_metrics(r.records, "raw_s") for r in rounds]
    e2e = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    raw = {k: statistics.median(m[k] for m in per_round_raw) for k in per_round_raw[0]}
    kernel_mean_s = statistics.fmean(clock.samples)
    e2e["setup_s"] = setup_raw_s * refclock.NOMINAL_KERNEL_S / kernel_mean_s
    raw["setup_s"] = setup_raw_s
    e2e["peak_rss_mb"] = raw["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    units = {"wall_s": "s", "member_ms": "ms", "field_s": "s", "setup_s": "s",
             "peak_rss_mb": "MiB"}
    detail = {"normalised": e2e, "raw": raw, "rounds": len(rounds), "notes": notes,
              "traced_rounds": len(traced_rounds),
              "kernel_ms_mean": 1e3 * kernel_mean_s,
              "kernel_samples": len(clock.samples),
              "ops": [[rec["command"], round(rec["raw_s"], 4), round(rec["norm_s"], 4)]
                      for rec in runner.records]}
    if args.trace:
        metrics = layer_metrics(traced_rounds, per_round, per_round_raw, clock)
        path = os.path.join(RUNS_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": traced_rounds[0][1].span_records(t_start),
                       "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                       "metrics": metrics}, fh)
        detail["trace_file"] = os.path.relpath(path, ROOT)
    else:
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in units}
    shutil.rmtree(workdir, ignore_errors=True)
    print("detail: " + json.dumps(detail, sort_keys=True))
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(traced_rounds, per_round, per_round_raw, clock) -> dict:
    """Per-layer metrics, averaged over the traced rounds."""
    n = len(traced_rounds)
    tracers = [t for _, t in traced_rounds]

    def self_s(name: str) -> float:
        return sum(t.self_norm_s.get(name, 0.0) for t in tracers) / n

    def count(name: str) -> float:
        return sum(t.counts.get(name, 0.0) for t in tracers) / n

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    batches = tracers[0].batches
    m = {}
    m["floquet.rk4_transfer.calls"] = (count("floquet.rk4_transfer.calls"), "count")
    m["floquet.rk4_transfer.lambda_steps"] = (count("floquet.rk4_transfer.lambda_steps"), "count")
    m["floquet.rk4_transfer.self_s"] = (self_s("floquet.rk4_transfer"), "s")
    m["floquet.rk4_transfer.ns_per_lambda_step"] = (
        ratio(self_s("floquet.rk4_transfer"), count("floquet.rk4_transfer.lambda_steps"), 1e9), "ns")
    m["floquet.rk4_transfer.median_batch"] = (
        float(statistics.median(batches)) if batches else 0.0, "count")
    m["floquet.build_models.centers"] = (count("floquet.build_models.centers"), "count")
    m["floquet.build_models.self_s"] = (self_s("floquet.build_models"), "s")
    m["floquet.locate_spectral_points.self_s"] = (self_s("floquet.locate_spectral_points"), "s")
    m["floquet.contour_sum.models"] = (count("floquet.contour_sum.models"), "count")
    m["floquet.contour_sum.self_s"] = (self_s("floquet.contour_sum"), "s")
    m["dirac_spectrum.discriminant_batch.self_s"] = (self_s("dirac_spectrum.discriminant_batch"), "s")
    m["dirac_spectrum.discriminant_derivative.calls"] = (
        count("dirac_spectrum.discriminant_derivative.calls"), "count")
    m["dirac_spectrum.critical_points.self_s"] = (self_s("dirac_spectrum.critical_points"), "s")
    m["hill_spectrum.hill_discriminant_batch.self_s"] = (
        self_s("hill_spectrum.hill_discriminant_batch"), "s")
    m["hill_spectrum.hill_periodic_spectrum.calls"] = (
        count("hill_spectrum.hill_periodic_spectrum.calls"), "count")
    m["hill_spectrum.hill_periodic_spectrum.self_s"] = (
        self_s("hill_spectrum.hill_periodic_spectrum"), "s")
    m["hill_spectrum.pw_statistic_contour.self_s"] = (self_s("hill_spectrum.pw_statistic_contour"), "s")
    attempts = count("gibbs_sampler.importance.attempts")
    m["gibbs_sampler.importance_ensemble.self_s"] = (self_s("gibbs_sampler.importance_ensemble"), "s")
    m["gibbs_sampler.importance.attempts"] = (attempts, "count")
    m["gibbs_sampler.importance.acceptance_rate"] = (
        ratio(count("gibbs_sampler.importance.accepted"),
              count("gibbs_sampler.importance.completed_attempts")), "ratio")
    m["gibbs_sampler.importance.us_per_attempt"] = (
        ratio(self_s("gibbs_sampler.importance_ensemble"), attempts, 1e6), "us")
    steps = count("gibbs_sampler.mcmc.steps")
    m["gibbs_sampler.mcmc_ensemble.us_per_step"] = (
        ratio(self_s("gibbs_sampler.mcmc_ensemble"), steps, 1e6), "us")
    m["gibbs_sampler.mcmc.accept_fraction"] = (
        ratio(count("gibbs_sampler.mcmc.accepted_steps"), steps), "ratio")
    m["fourier_field.lp_integral.calls"] = (count("fourier_field.lp_integral.calls"), "count")
    m["fourier_field.lp_integral.self_s"] = (self_s("fourier_field.lp_integral"), "s")
    split = count("flow_lab.split_step_evolve.steps")
    m["flow_lab.split_step_evolve.steps"] = (split, "count")
    m["flow_lab.split_step_evolve.us_per_step"] = (
        ratio(self_s("flow_lab.split_step_evolve"), split, 1e6), "us")
    m["flow_lab.weighted_ks_distance.calls"] = (count("flow_lab.weighted_ks_distance.calls"), "count")
    m["flow_lab.weighted_ks_distance.self_s"] = (self_s("flow_lab.weighted_ks_distance"), "s")
    m["hessian_convexity.hessian_matrix_V.self_s"] = (self_s("hessian_convexity.hessian_matrix_V"), "s")
    m["hessian_convexity.eigvalsh.self_s"] = (self_s("hessian_convexity.eigvalsh"), "s")
    m["hessian_convexity.certify_convexity.calls"] = (
        count("hessian_convexity.certify_convexity.calls"), "count")
    m["hessian_convexity.certify_convexity.self_s"] = (self_s("hessian_convexity.certify_convexity"), "s")
    m["concentration_harness.collect_statistic.members"] = (
        count("concentration_harness.collect_statistic.members"), "count")
    m["concentration_harness.collect_statistic.self_s"] = (
        self_s("concentration_harness.collect_statistic"), "s")
    m["concentration_harness.empirical_log_mgf.self_s"] = (
        self_s("concentration_harness.empirical_log_mgf"), "s")
    m["cli.io.self_s"] = (self_s("cli.io"), "s")
    for layer in tracers[0].layer_self_s():
        m[f"layer.{layer}.self_s"] = (sum(t.layer_self_s()[layer] for t in tracers) / n, "s")
    traced_wall = statistics.fmean(
        sum(rec["norm_s"] for rec in r.records) for r, _ in traced_rounds)
    m["bench.raw_wall_s"] = (statistics.median(x["wall_s"] for x in per_round_raw), "s")
    m["bench.ref_kernel_ms"] = (1e3 * statistics.fmean(clock.samples), "ms")
    m["bench.trace_overhead_s"] = (traced_wall - statistics.median(x["wall_s"] for x in per_round), "s")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def steadiness(args) -> None:
    """Two alternating sets of runs; medians, quartiles and agreement per metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    sets = {"A": [], "B": []}
    for i in range(args.runs):
        for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
            seed = args.seed + i
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"run {name}{i} failed: {proc.stderr.strip()[-500:]}", 1)
            detail = json.loads(next(x for x in lines if x.startswith("detail: "))[8:])
            result = json.loads(lines[-1])
            sets[name].append({"result": result, "detail": detail})
            print(f"{name}{i} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
    report = {"workload": args.workload, "runs_per_set": args.runs, "metrics": {}}
    agree = True
    for metric, bound in bounds.items():
        entry = {"bound": bound}
        for kind in ("normalised", "raw"):
            for name, runs in sets.items():
                vals = [r["detail"][kind][metric] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                entry[f"{name}_{kind}"] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": (q3 - q1) / med}
        a, b = entry["A_normalised"], entry["B_normalised"]
        entry["median_shift"] = (b["median"] - a["median"]) / a["median"]
        ok = abs(entry["median_shift"]) <= bound
        if metric != "setup_s":
            ok = ok and a["spread"] <= bound and b["spread"] <= bound
        entry["agree"] = ok
        agree = agree and ok
        report["metrics"][metric] = entry
    failed = {name: [r["result"]["failed"] / r["result"]["attempted"] for r in runs]
              for name, runs in sets.items()}
    report["failed_share_identical"] = len({x for v in failed.values() for x in v}) == 1
    report["all_correct"] = all(r["result"]["correct"] for v in sets.values() for r in v)
    report["agree"] = agree and report["failed_share_identical"] and report["all_correct"]
    print(json.dumps(report, indent=2, sort_keys=True))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true",
                    help="run two alternating sets and compare them")
    ap.add_argument("--runs", type=int, default=5, help="runs per set in --steadiness mode")
    args = ap.parse_args()
    if args.steadiness:
        steadiness(args)
        return
    result = run(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
