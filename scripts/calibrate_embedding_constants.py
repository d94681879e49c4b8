#!/usr/bin/env python3
"""Tabulate the exact embedding constants used by the convexity module.

c_delta(M) = sqrt(1 + 2 sum_{n=1}^{M} n^{-2 delta}) bounds ||phi||_inf by the
H^delta norm on fields of mode cutoff M; c_gamma = 1 and kappa = 24 for
p = 4 (see ``embedding_constants``).  Writes a JSON table over a small delta
grid at the given cutoff.
"""

import argparse
import json

from gibbslab.hessian_convexity import embedding_constants

DELTAS = (0.6, 0.75, 0.9)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cutoff", type=int, default=24)
    ap.add_argument("--out", default="embedding_constants.json")
    args = ap.parse_args()

    rows = []
    for delta in DELTAS:
        exact = embedding_constants(delta, args.cutoff)
        rows.append({"delta": delta, **exact})
        print(
            f"delta={delta:<5} c_gamma={exact['c_gamma']:.4f} c_delta={exact['c_delta']:.4f} "
            f"kappa_p={exact['kappa_p']:.1f}"
        )
    with open(args.out, "w") as fh:
        json.dump({"cutoff": args.cutoff, "rows": rows}, fh, indent=2)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
