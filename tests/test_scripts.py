"""Smoke tests: each experiment script in scripts/ runs on tiny arguments."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from gibbslab.gibbs_sampler import GibbsParams, effective_sample_size, importance_ensemble
from gibbslab.hessian_convexity import embedding_constants

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, args: list[str], cwd: Path, ok: bool = True):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    if ok:
        assert proc.returncode == 0, proc.stderr
    return proc


def csv_header(path: Path) -> list[str]:
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


def test_concentration_pipeline(tmp_path):
    # the paper's regime: focusing beta = -1 on the unit mass ball
    out = tmp_path / "conc"
    run_script(
        "concentration_pipeline.py",
        ["--count", "30", "--statistic", "l2", "--cutoff", "4", "--out", str(out)],
        tmp_path,
    )
    report = json.loads(Path(str(out) + ".json").read_text())
    assert report["statistic_name"] == "l2"
    assert report["members_evaluated"] == 30
    assert csv_header(Path(str(out) + ".curve.csv")) == ["t", "log_mgf", "stderr"]


def test_concentration_pipeline_degenerate_weights(tmp_path):
    # at ball 100 and beta = -4 the importance weights of 30 members collapse onto one
    ens = importance_ensemble(30, GibbsParams(p=4.0, beta=-4.0, ball_radius=100.0, cutoff=8), 42)
    assert effective_sample_size(ens) - 1.0 < 1e-9
    proc = run_script(
        "concentration_pipeline.py",
        ["--count", "30", "--statistic", "l2", "--ball", "100", "--beta", "-4",
         "--seed", "42", "--out", str(tmp_path / "c")],
        tmp_path,
        ok=False,
    )
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: no nonzero t survived")


def test_calibrate_embedding_constants(tmp_path):
    out = tmp_path / "constants.json"
    run_script(
        "calibrate_embedding_constants.py",
        ["--cutoff", "4", "--out", str(out)],
        tmp_path,
    )
    table = json.loads(out.read_text())
    assert table["cutoff"] == 4
    assert table["rows"] == [
        {"delta": d, **embedding_constants(d, 4)} for d in (0.6, 0.75, 0.9)
    ]


def test_isospectrality_refinement(tmp_path):
    out = tmp_path / "iso.csv"
    run_script("isospectrality_refinement.py", ["--time", "0.01", "--out", str(out)], tmp_path)
    assert csv_header(out) == ["dt", "cutoff", "drift", "count_before", "count_after"]
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 4  # header and three refinement levels
