#!/usr/bin/env python3
"""End-to-end concentration experiment at desk scale.

Draws a focusing Gibbs ensemble, collects a spectral linear statistic over
it, probes the empirical Lipschitz constant, and writes the log-MGF curve
with its sub-Gaussian fit.  Mirrors the CLI pipeline but keeps everything
in one process for quick iteration.
"""

import argparse
import csv
import json
import sys

from gibbslab import concentration_harness as ch
from gibbslab import hessian_convexity as hc
from gibbslab.fourier_field import result_to_json
from gibbslab.gibbs_sampler import GibbsParams, importance_ensemble


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=300)
    ap.add_argument("--cutoff", type=int, default=8)
    ap.add_argument("--ball", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=-1.0)
    ap.add_argument("--statistic", default="dirac:critical:lorentzian:c=3:M=3")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="concentration")
    args = ap.parse_args()

    params = GibbsParams(p=4.0, beta=args.beta, ball_radius=args.ball, cutoff=args.cutoff)
    ens = importance_ensemble(args.count, params, args.seed)
    print(f"ensemble: {len(ens)} members, acceptance "
          f"{ens.diagnostics['acceptance_rate']:.4f}")

    name, fn = ch.make_statistic(args.statistic)
    sample = ch.collect_statistic(ens, fn, name=name)
    probe = ch.lipschitz_probe(fn, ens, pair_count=200, seed=args.seed, sample=sample)
    cparams = hc.ConvexityParams(holder_bound=5.0)
    alpha = hc.lsi_lower_bound(args.beta, 4.0, args.ball, cparams, eta=0.25, route="ball")
    bound = probe["lipschitz"] ** 2 / alpha if alpha > 0 else None
    try:
        report = ch.concentration_report(sample, eta_bound=bound, seed=args.seed)
    except ch.DegenerateWeightsError as exc:
        sys.exit(f"error: {exc}")

    with open(args.out + ".json", "w") as fh:
        json.dump(result_to_json(report), fh, indent=2, sort_keys=True)
    with open(args.out + ".curve.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "log_mgf", "stderr"])
        curve = report.log_mgf_curve
        for t, v, s in zip(curve.t, curve.value, curve.stderr):
            w.writerow([repr(float(t)), repr(float(v)), repr(float(s))])
    print(f"{name}: mean {report.weighted_mean:.5f} var {report.weighted_variance:.5f}")
    print(f"fitted eta {report.fit.fitted_eta:.4f}, envelope {report.fit.envelope_eta:.4f}, "
          f"K_emp {probe['lipschitz']:.3f}, pass={report.subgaussian_pass}")
    print(f"wrote {args.out}.json and {args.out}.curve.csv")


if __name__ == "__main__":
    main()
