import json
import warnings
from pathlib import Path

import pytest

from gibbslab import concentration_harness as ch
from gibbslab import flow_lab as fl
from gibbslab.cli import main
from gibbslab.floquet import TAYLOR_ORDER
from gibbslab.fourier_field import field_from_json, field_from_modes, l2_norm_sq, save_field
from gibbslab.gibbs_sampler import load_ensemble_jsonl
from conftest import random_field

try:
    import jsonschema
    from referencing import Registry, Resource

    HAVE_JSONSCHEMA = True
except ImportError:  # pragma: no cover
    HAVE_JSONSCHEMA = False

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "gibbslab" / "schemas"


def validate(obj, schema_name: str) -> None:
    if not HAVE_JSONSCHEMA:
        pytest.skip("jsonschema not installed")
    schemas = {}
    for p in SCHEMA_DIR.glob("*.schema.json"):
        s = json.loads(p.read_text())
        schemas[s["$id"]] = s
    registry = Registry().with_resources(
        (uri, Resource.from_contents(s)) for uri, s in schemas.items()
    )
    target = json.loads((SCHEMA_DIR / f"{schema_name}.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(target, registry=registry)
    validator.validate(obj)


@pytest.fixture
def mathieu_field(tmp_path):
    path = tmp_path / "q.json"
    save_field(field_from_modes(2, {2: 0.1, -2: 0.1}), path)
    return str(path)


@pytest.fixture
def small_complex_field(tmp_path):
    path = tmp_path / "phi.json"
    save_field(field_from_modes(2, {1: 0.05 + 0.02j, 2: 0.01}), path)
    return str(path)


# one small run of every subcommand; {phi}, {q} and {ens} name the inputs
SUBCOMMAND_ARGS = {
    "sample": ["--ball", "1", "--cutoff", "4", "--count", "5"],
    "dirac-spectrum": ["--field", "{phi}", "--window", "-1.5", "1.5", "--steps", "512"],
    "hill-spectrum": ["--field", "{q}", "--lambda-max", "10", "--steps", "1024"],
    "statistic": ["--field", "{phi}", "--method", "direct", "--g", "builtin:lorentzian:c=3",
                  "--steps", "512"],
    "borg-check": ["--field", "{q}", "--n-max", "2", "--steps", "1024"],
    "frame-bounds": ["--field", "{q}", "--range", "2", "--family", "8", "--steps", "1024"],
    "pw-statistic": ["--field", "{q}", "--n", "1..2", "--steps", "1024"],
    "convexity": ["--cutoff", "4", "--samples", "2", "--workers", "2"],
    "flow": ["--field", "{phi}", "--dt", "1e-3", "--time", "0.01"],
    "invariance": ["--ensemble", "{ens}", "--time", "0.01", "--permutations", "10"],
    "concentration": ["--ensemble", "{ens}", "--statistic", "coord:a1", "--bootstrap", "5",
                      "--workers", "3"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    save_field(field_from_modes(2, {2: 0.1, -2: 0.1}), d / "q.json")
    save_field(field_from_modes(2, {1: 0.05 + 0.02j, 2: 0.01}), d / "phi.json")
    ens = d / "ens.jsonl"
    assert main(["sample", "--beta", "0", "--ball", "1000", "--cutoff", "4",
                 "--count", "40", "--seed", "1", "--out", str(ens)]) == 0
    return {"q": str(d / "q.json"), "phi": str(d / "phi.json"), "ens": str(ens)}


class TestBasics:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["sample", "--does-not-exist", "1"]) == 2

    def test_missing_subcommand_exits_two(self):
        assert main([]) == 2

    def test_config_error_exit_code(self, tmp_path):
        out = str(tmp_path / "x.json")
        # ball radius must be positive -> configuration error
        code = main(
            ["sample", "--ball", "-1", "--cutoff", "4", "--count", "5", "--out", out]
        )
        assert code == 2

    def test_nan_ball_is_a_config_error(self, tmp_path, capsys):
        # a NaN radius used to pass validation and exhaust the attempt budget;
        # an infinite one wrote a header that is not JSON
        out = str(tmp_path / "x.jsonl")
        for ball in ("nan", "inf"):
            argv = ["sample", "--ball", ball, "--cutoff", "8", "--count", "2", "--out", out]
            assert main(argv) == 2
            assert "configuration error" in capsys.readouterr().err

    def test_zero_weight_sum_is_a_config_error(self, tmp_path, capsys):
        # at beta = -1e6 every member's Gibbs weight diverges and is set to 0;
        # the weighted mean used to crash with a bare ZeroDivisionError
        ens, out = str(tmp_path / "ens.jsonl"), str(tmp_path / "c.json")
        argv = ["sample", "--p", "6", "--beta=-1e6", "--ball", "50", "--cutoff", "4",
                "--count", "20", "--seed", "3", "--out", ens]
        assert main(argv) == 0
        assert load_ensemble_jsonl(ens).diagnostics["divergent_weights"] == 20
        capsys.readouterr()
        assert main(["concentration", "--ensemble", ens, "--statistic", "l2", "--out", out]) == 2
        assert "configuration error: the weights of all 20 members sum to zero" in (
            capsys.readouterr().err
        )
        assert not Path(out).exists()

    def test_missing_hill_midpoints_are_a_config_error(self, tmp_path, capsys):
        # constant mode -10 puts the low gap midpoints below zero, so only
        # t_0 is computed and both commands ask for more
        q = tmp_path / "q.json"
        save_field(field_from_modes(2, {0: -10.0}), q)
        for command, flag in (("frame-bounds", "--range"), ("borg-check", "--n-max")):
            out = tmp_path / f"{command}.json"
            argv = [command, "--field", str(q), flag, "3", "--steps", "1024", "--out", str(out)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and "Traceback" not in err
            assert not out.exists()

    def test_invariance_without_observables_is_a_config_error(self, inputs, tmp_path, capsys):
        out = tmp_path / "inv.json"
        argv = ["invariance", "--ensemble", inputs["ens"], "--time", "0.01",
                "--observables", ",", "--out", str(out)]
        assert main(argv) == 2
        assert "configuration error: invariance check needs at least one observable" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
    def test_every_subcommand_writes_a_manifest(self, command, inputs, tmp_path):
        out = tmp_path / "result.json"
        argv = [a.format(**inputs) for a in SUBCOMMAND_ARGS[command]]
        assert main([command, *argv, "--seed", "7", "--out", str(out)]) == 0
        assert out.exists()
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        validate(manifest, "manifest")
        assert manifest["command"] == command
        assert "func" not in manifest["config"] and "command" not in manifest["config"]
        assert manifest["config"]["out"] == str(out)
        assert manifest["seed"] == manifest["config"]["seed"] == 7
        assert manifest["workers"] == manifest["config"].get("workers", 1)
        integrator = {"method": "taylor", "order": TAYLOR_ORDER}
        if command == "concentration":
            integrator["statistic_steps"] = {"dirac": ch.DIRAC_STEPS, "hill": ch.HILL_STEPS}
        assert manifest["integrator"] == integrator

    def test_negative_t_grid_in_both_forms(self, inputs, tmp_path, capsys):
        # a symmetric grid starts with '-', which argparse would read as a flag
        outs = [tmp_path / "joined.json", tmp_path / "spaced.json"]
        for out, grid in zip(outs, (["--t-grid=-1:1:21"], ["--t-grid", "-1:1:21"])):
            argv = ["concentration", "--ensemble", inputs["ens"], "--statistic", "l2",
                    "--bootstrap", "5", *grid, "--seed", "3", "--out", str(out)]
            assert main(argv) == 0, capsys.readouterr().err
        joined, spaced = (json.loads(out.read_text()) for out in outs)
        assert joined == spaced
        assert len(joined["log_mgf_curve"]["t"]) == 21
        assert min(joined["log_mgf_curve"]["t"]) == -1.0
        # the help states the form that needs no rewriting
        assert main(["concentration", "--help"]) == 0
        assert "--t-grid=-2:2:41" in capsys.readouterr().out

    def test_overflow_is_a_numerical_failure(self, mathieu_field, tmp_path, capsys):
        out = tmp_path / "hill.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["hill-spectrum", "--field", mathieu_field, "--lambda-max", "1e6",
                 "--steps", "64", "--out", str(out)]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical failure:" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()


class TestSampleCommand:
    def test_sample_and_manifest(self, tmp_path):
        out = tmp_path / "ens.jsonl"
        code = main(
            [
                "sample", "--kind", "nls", "--p", "4", "--beta", "-1",
                "--ball", "1.0", "--cutoff", "6", "--count", "20",
                "--method", "importance", "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        header = json.loads(lines[0])
        validate(header, "ensemble_record")
        assert header["count"] == 20
        for line in lines[1:3]:
            validate(json.loads(line), "ensemble_record")
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        validate(manifest, "manifest")
        ens = load_ensemble_jsonl(out)
        assert len(ens) == 20

    def test_mcmc_sample(self, tmp_path):
        out = tmp_path / "ens.jsonl"
        code = main(
            [
                "sample", "--kind", "kdv", "--beta", "-1", "--ball", "2.0",
                "--cutoff", "4", "--count", "15", "--method", "mcmc",
                "--step-size", "0.4", "--seed", "3", "--pi-periodic",
                "--out", str(out),
            ]
        )
        assert code == 0
        ens = load_ensemble_jsonl(out)
        assert ens.method == "mcmc"
        assert len(ens) == 15


class TestSpectrumCommands:
    def test_dirac_spectrum(self, small_complex_field, tmp_path):
        out = tmp_path / "spec.json"
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "dirac-spectrum", "--field", small_complex_field,
                "--window", "-3.5", "3.5", "--steps", "1024",
                "--trace-csv", str(trace), "--out", str(out),
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        validate(obj, "dirac_spectrum")
        total = sum(p["multiplicity"] for p in obj["periodic_points"])
        assert total == 14  # 7 clusters, counted with multiplicity
        header = trace.read_text().splitlines()[0]
        assert header == "lambda,re_delta,im_delta"

    def test_hill_spectrum(self, mathieu_field, tmp_path):
        out = tmp_path / "hill.json"
        code = main(
            [
                "hill-spectrum", "--field", mathieu_field,
                "--lambda-max", "30", "--steps", "2048", "--out", str(out),
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        validate(obj, "hill_spectrum")
        assert obj["period_convention"] == "pi"
        assert len(obj["eigenvalues"]) == 11

    def test_statistic_cross_method(self, small_complex_field, tmp_path):
        vals = {}
        for method in ("contour", "direct"):
            out = tmp_path / f"{method}.json"
            code = main(
                [
                    "statistic", "--field", small_complex_field,
                    "--method", method, "--g", "builtin:lorentzian:c=3",
                    "--window", "-3.5", "3.5", "--index-range", "3",
                    "--steps", "1024", "--out", str(out),
                ]
            )
            assert code == 0
            obj = json.loads(out.read_text())
            validate(obj, "statistic")
            vals[method] = obj["value"]
        assert abs(vals["contour"] - vals["direct"]) < 1e-6

    def test_borg_and_frames_and_pw(self, mathieu_field, tmp_path):
        out = tmp_path / "borg.json"
        assert main(
            ["borg-check", "--field", mathieu_field, "--n-max", "4",
             "--steps", "2048", "--out", str(out)]
        ) == 0
        obj = json.loads(out.read_text())
        validate(obj, "borg_check")
        assert obj["passed"] is True

        out2 = tmp_path / "frames.json"
        assert main(
            ["frame-bounds", "--field", mathieu_field, "--range", "4",
             "--family", "16", "--steps", "2048", "--out", str(out2)]
        ) == 0
        obj2 = json.loads(out2.read_text())
        validate(obj2, "frame_bounds")
        assert 0 < obj2["lower"] <= obj2["upper"]

        out3 = tmp_path / "pw.json"
        assert main(
            ["pw-statistic", "--field", mathieu_field, "--n", "1..3",
             "--steps", "2048", "--out", str(out3)]
        ) == 0
        obj3 = json.loads(out3.read_text())
        validate(obj3, "pw_statistic")
        assert [r["index"] for r in obj3["records"]] == [1, 2, 3]


class TestPipelines:
    def test_convexity(self, tmp_path):
        out = tmp_path / "conv.json"
        code = main(
            [
                "convexity", "--p", "4", "--beta", "-1", "--ball", "1",
                "--holder-k", "5", "--cutoff", "6", "--samples", "4",
                "--seed", "2", "--workers", "1", "--out", str(out),
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        validate(obj, "convexity")
        assert obj["all_certified"] is True

    def test_flow(self, small_complex_field, tmp_path):
        out = tmp_path / "flow.json"
        code = main(
            [
                "flow", "--field", small_complex_field, "--p", "4",
                "--beta", "-1", "--dt", "1e-3", "--time", "0.1",
                "--cutoff", "8", "--out", str(out),
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        validate(obj, "flow")
        assert obj["conservation"]["l2_drift"] < 1e-10

    def test_flow_records_dropped_mass(self, tmp_path):
        f = random_field(8, 31)
        f = f * (1.0 / l2_norm_sq(f) ** 0.5)
        save_field(f, tmp_path / "phi.json")
        out = tmp_path / "flow.json"
        code = main(
            ["flow", "--field", str(tmp_path / "phi.json"), "--p", "4", "--beta", "-1",
             "--dt", "1e-3", "--time", "2", "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        validate(obj, "flow")
        written = l2_norm_sq(field_from_json(obj["final_field"]))
        dropped = obj["final_field_dropped_mass"]
        assert dropped > 0.0
        params = fl.FlowParams(4.0, -1.0, 1e-3, 2000, 8)
        evolved = l2_norm_sq(fl.evolve_trajectory(f, params, snapshots=8)[-1])
        assert abs(written + dropped - evolved) <= 1e-12 * evolved
        m0 = l2_norm_sq(f)
        # the drift bound itself, plus rounding of the two sums
        assert abs(written + dropped - m0) <= (obj["conservation"]["l2_drift"] + 1e-15) * m0

    def test_invariance(self, tmp_path):
        ens_path = tmp_path / "ens.jsonl"
        main(
            ["sample", "--beta", "0", "--ball", "100", "--cutoff", "6",
             "--count", "32", "--seed", "4", "--out", str(ens_path)]
        )
        out = tmp_path / "inv.json"
        code = main(
            ["invariance", "--ensemble", str(ens_path), "--time", "0.1",
             "--dt", "1e-3", "--observables", "l2,V", "--permutations", "50",
             "--seed", "1", "--workers", "2", "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        validate(obj, "invariance")
        assert obj["all_within_band"] is True

    def test_concentration_and_determinism(self, tmp_path):
        ens_path = tmp_path / "ens.jsonl"
        main(
            ["sample", "--beta", "0", "--ball", "1000", "--cutoff", "6",
             "--count", "150", "--seed", "9", "--out", str(ens_path)]
        )
        outs = []
        for workers in (1, 8):
            out = tmp_path / f"conc{workers}.json"
            code = main(
                ["concentration", "--ensemble", str(ens_path),
                 "--statistic", "coord:a1", "--bootstrap", "40",
                 "--seed", "3", "--workers", str(workers), "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        obj = json.loads(outs[0])
        validate(obj, "concentration")
        curve = obj["log_mgf_curve"]
        assert curve["value"][len(curve["t"]) // 2] == 0.0
