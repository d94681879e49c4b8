import json
import sys
import warnings
from pathlib import Path

import pytest

from gibbslab import concentration_harness as ch
from gibbslab import cli, floquet
from gibbslab import flow_lab as fl
from gibbslab.cli import COMMANDS, _join_t_grid, build_parser, main
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
# help and error text of the CLI, captured at COLUMNS=80 under Python 3.11
GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "cli_help"
GOLDEN_PYTHON = (3, 11)


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


MANIFEST_CASES = [pytest.param(c, argv, id=c) for c, argv in sorted(SUBCOMMAND_ARGS.items())] + [
    pytest.param(
        "concentration",
        ["--ensemble", "{ens}", "--statistic", "l2", "--bootstrap", "5", "--t-grid", "-2:2:41"],
        id="concentration-spaced-t-grid",
    )
]

BOGUS = ["sample", "--ball", "1", "--cutoff", "4", "--count", "5", "--out", "x.jsonl", "--bogus"]
# argvs that end in the parser: help, version, and every kind of parse error
PARSE_EXITS = [
    ["--help"], ["-h", "sample"], ["--version"], [], ["smaple", "--ball", "1"],
    *([command, "--help"] for command in COMMANDS),
    ["sample", "--cutoff", "4", "--count", "5", "--out", "x.jsonl"],
    ["sample", "--kind", "dirac", "--ball", "1", "--cutoff", "4", "--count", "5", "--out", "x.jsonl"],
    BOGUS,
]
GOLDEN_CASES = [("gibbslab.help.txt", ["--help"])] + [
    (f"{command}.help.txt", [command, "--help"]) for command in COMMANDS
] + [
    ("bogus.stderr.txt", BOGUS),
    ("no-command.stderr.txt", []),
    ("unknown-command.stderr.txt", ["smaple", "--ball", "1"]),
]


def object_schemas(node):
    """Every schema inside ``node`` that declares ``properties``."""
    if isinstance(node, dict):
        if "properties" in node:
            yield node
        for value in node.values():
            yield from object_schemas(value)
    elif isinstance(node, list):
        for value in node:
            yield from object_schemas(value)


def exit_of(capsys, parse, argv) -> tuple:
    """Exit code, stdout and stderr of one parse that ends the program."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (int(exc.value.code or 0), *capsys.readouterr())


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

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "x.jsonl")
        argv = ["sample", "--ball", "1", "--cutoff", "4", "--count", "2", "--seed", "-1",
                "--out", out]
        assert main(argv) == 2
        assert "configuration error: expected non-negative integer" in capsys.readouterr().err

    def test_zero_weight_sum_is_a_config_error(self, tmp_path, capsys):
        # at beta = -1e6 every member's Gibbs weight diverges and is set to 0;
        # the weighted mean used to crash with a bare ZeroDivisionError
        ens, out = str(tmp_path / "ens.jsonl"), str(tmp_path / "c.json")
        argv = ["sample", "--p", "6", "--beta=-1e6", "--ball", "50", "--cutoff", "4",
                "--count", "20", "--seed", "3", "--out", ens]
        assert main(argv) == 0
        assert load_ensemble_jsonl(ens).diagnostics["divergent_weights"] == 20
        validate(json.loads(Path(ens).read_text().splitlines()[0]), "ensemble_record")
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

    def test_contour_statistic_without_centers_is_a_config_error(
        self, small_complex_field, tmp_path, capsys
    ):
        # --centers auto takes the field's critical points in the window, and
        # (0.2, 0.8) has none; the empty contour sum used to be written as 0.0
        out = tmp_path / "stat.json"
        argv = ["statistic", "--field", small_complex_field, "--method", "contour",
                "--g", "builtin:lorentzian:c=3", "--window", "0.2", "0.8", "--out", str(out)]
        assert main(argv) == 2
        assert "configuration error: no contour centers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, time",
        [("flow", "0"), ("flow", "-1"), ("flow", "4e-4"), ("invariance", "-0.5")],
    )
    def test_time_below_one_step_is_a_config_error(
        self, inputs, tmp_path, capsys, command, time
    ):
        # round(time / dt) < 1 used to run one forward step and report time dt
        out = tmp_path / "out.json"
        source = ["--field", inputs["phi"]] if command == "flow" else ["--ensemble", inputs["ens"]]
        argv = [command, *source, "--dt", "1e-3", f"--time={time}", "--out", str(out)]
        assert main(argv) == 2
        assert "fewer than 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt, time", [("0", "0.01"), ("1e-3", "inf")])
    def test_infinite_step_count_is_a_config_error(self, inputs, tmp_path, capsys, dt, time):
        # time / dt used to raise ZeroDivisionError or OverflowError, a traceback
        argv = ["flow", "--field", inputs["phi"], "--dt", dt, "--time", time,
                "--out", str(tmp_path / "flow.json")]
        assert main(argv) == 2
        assert "is not a finite step count" in capsys.readouterr().err

    def test_negative_time_and_dt_run_backwards(self, inputs, tmp_path):
        out = tmp_path / "flow.json"
        argv = ["flow", "--field", inputs["phi"], "--dt=-1e-3", "--time=-0.01", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["time"] == pytest.approx(-0.01)

    def test_truncated_ensemble_is_a_config_error(self, inputs, tmp_path, capsys):
        # a header of count 40 over 2 records used to load as a 2-member ensemble
        lines = Path(inputs["ens"]).read_text().splitlines(keepends=True)
        ens = tmp_path / "short.jsonl"
        ens.write_text("".join(lines[:3]))
        out = tmp_path / "conc.json"
        argv = ["concentration", "--ensemble", str(ens), "--statistic", "l2", "--out", str(out)]
        assert main(argv) == 2
        assert "header count 40, 2 records" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_lambda_max_is_a_config_error(self, mathieu_field, tmp_path, capsys):
        out = tmp_path / "hill.json"
        argv = ["hill-spectrum", "--field", mathieu_field, "--lambda-max=-1", "--out", str(out)]
        assert main(argv) == 2
        assert "lambda_max must be non-negative" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "flag, spec",
        [
            ("--statistic", "dirac"),
            ("--statistic", "hill"),
            ("--statistic", "dirac:critical"),
            ("--statistic", "coord"),
            ("--statistic", "coord:"),
            ("--observables", "coord"),
        ],
    )
    def test_short_statistic_is_a_config_error(self, inputs, tmp_path, capsys, flag, spec):
        # a descriptor cut short used to raise IndexError, a traceback
        out = tmp_path / "out.json"
        command = ["concentration"] if flag == "--statistic" else ["invariance", "--time", "0.01"]
        argv = [*command, "--ensemble", inputs["ens"], f"{flag}={spec}", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()

    @pytest.mark.parametrize("radius", ["0", "-0.3"])
    def test_nonpositive_contour_radius_is_a_config_error(
        self, small_complex_field, tmp_path, capsys, radius
    ):
        # radius 0 wrote the value 0.0 (every root count 0 is an integer), and
        # -0.3 integrated a circle of radius 0.3 on models trusted to 0.25
        out = tmp_path / "stat.json"
        argv = ["statistic", "--field", small_complex_field, "--method", "contour",
                "--g", "builtin:lorentzian:c=3", "--window", "-1.5", "1.5",
                f"--radius={radius}", "--out", str(out)]
        assert main(argv) == 2
        assert "contour radius must lie in (0, 1/4)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag", [("concentration", "--bootstrap"), ("invariance", "--permutations")]
    )
    def test_no_resamples_is_a_config_error(self, inputs, tmp_path, capsys, command, flag):
        # --bootstrap 0 wrote NaN for envelope_eta and every stderr, and
        # --permutations 0 ended in an IndexError traceback from np.quantile
        out = tmp_path / "out.json"
        extra = ["--statistic", "coord:a1"] if command == "concentration" else ["--time", "0.01"]
        argv = [command, "--ensemble", inputs["ens"], *extra, flag, "0", "--out", str(out)]
        assert main(argv) == 2
        assert "at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_borg_check_needs_a_midpoint(self, mathieu_field, tmp_path, capsys):
        # n_max 0 used to fail in numpy: "zero-size array to reduction operation"
        out = tmp_path / "borg.json"
        argv = ["borg-check", "--field", mathieu_field, "--n-max", "0", "--out", str(out)]
        assert main(argv) == 2
        assert "n_max must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_pw_statistic_has_no_radius(self, mathieu_field, tmp_path):
        # each circle's radius follows from the gaps
        argv = ["pw-statistic", "--field", mathieu_field, "--radius", "0.25",
                "--out", str(tmp_path / "pw.json")]
        assert main(argv) == 2

    @pytest.mark.parametrize("command, args", MANIFEST_CASES)
    def test_every_subcommand_writes_a_manifest(self, command, args, inputs, tmp_path):
        out = tmp_path / "result.json"
        argv = [command, *(a.format(**inputs) for a in args), "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        assert out.exists()
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        validate(manifest, "manifest")
        assert manifest["command"] == command
        # the one-command parser resolves the configuration of the full one
        expected = vars(build_parser().parse_args(_join_t_grid(argv)))
        del expected["command"]
        assert manifest["config"] == expected
        assert manifest["config"]["out"] == str(out)
        assert manifest["seed"] == manifest["config"]["seed"] == 7
        assert manifest["workers"] == manifest["config"].get("workers", 1)
        integrator = {"method": "taylor", "order": TAYLOR_ORDER}
        if command == "concentration":
            integrator["statistic_steps"] = {"dirac": ch.DIRAC_STEPS, "hill": ch.HILL_STEPS}
        assert manifest["integrator"] == integrator

    @pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(argv) or "none")
    def test_one_command_parser_exits_as_the_full_one(self, argv, capsys, monkeypatch):
        builds = []

        def spy(*names):
            builds.append(names)
            return build_parser(*names)

        monkeypatch.setattr(cli, "build_parser", spy)
        got = (main(argv), *capsys.readouterr())
        assert got == exit_of(capsys, build_parser().parse_args, argv)
        if argv[:1] and argv[0] in COMMANDS:
            # unrecognised arguments are reported by the full parser
            assert builds == [(argv[0],)] + ([()] if argv is BOGUS else [])
        else:
            assert builds == [()]

    @pytest.mark.skipif(
        sys.version_info[:2] != GOLDEN_PYTHON,
        reason="the goldens hold argparse's Python 3.11 layout, which other versions change",
    )
    @pytest.mark.parametrize("name, argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_help_and_errors_match_the_goldens(self, name, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = (main(argv), *capsys.readouterr())
        golden = (GOLDEN_DIR / name).read_text()
        if name.endswith(".help.txt"):
            assert (code, out, err) == (0, golden, "")
        else:
            assert (code, out, err) == (2, "", golden)

    def test_default_seed_is_read_from_the_environment(self, tmp_path, monkeypatch):
        # GIBBSLAB_SEED is read at each parser build, so setting it after
        # import still changes the default
        monkeypatch.setenv("GIBBSLAB_SEED", "123")
        argv = ["sample", "--beta", "0", "--ball", "1000", "--cutoff", "4", "--count", "3"]
        default, explicit = tmp_path / "default.jsonl", tmp_path / "explicit.jsonl"
        assert main([*argv, "--out", str(default)]) == 0
        manifest = json.loads(Path(str(default) + ".manifest.json").read_text())
        assert manifest["seed"] == manifest["config"]["seed"] == 123
        assert main([*argv, "--seed", "123", "--out", str(explicit)]) == 0
        assert default.read_text() == explicit.read_text()

    @pytest.mark.parametrize("gamma", ["0", "0.5"])
    def test_convexity_gamma_outside_its_range_is_a_config_error(
        self, tmp_path, capsys, gamma
    ):
        out = tmp_path / "cvx.json"
        argv = ["convexity", "--cutoff", "4", "--samples", "2", "--gamma", gamma,
                "--out", str(out)]
        assert main(argv) == 2
        assert "configuration error: holder_gamma must lie in (1/4, 1/2)" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_convexity_at_p_other_than_4_is_a_config_error(self, tmp_path, capsys):
        # the certificates use the p = 4 constants; this run used to certify
        # every member with kappa = 24
        out = tmp_path / "cvx.json"
        argv = ["convexity", "--p", "5", "--beta", "-0.05", "--ball", "0.5", "--cutoff", "3",
                "--holder-k", "2", "--samples", "3", "--functional", "H_K", "--seed", "5",
                "--out", str(out)]
        assert main(argv) == 2
        assert "configuration error: convexity certificates hold for p = 4 only" in (
            capsys.readouterr().err
        )
        assert not out.exists()

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
        validate(json.loads(out.read_text().splitlines()[0]), "ensemble_record")
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
        # the schema pins the key set: the disk models stay in memory, and
        # every written key is required
        with pytest.raises(jsonschema.ValidationError, match="critical_models"):
            validate({**obj, "critical_models": []}, "dirac_spectrum")
        with pytest.raises(jsonschema.ValidationError, match="potential_hash"):
            validate({k: v for k, v in obj.items() if k != "potential_hash"}, "dirac_spectrum")
        total = sum(p["multiplicity"] for p in obj["periodic_points"])
        assert total == 14  # 7 clusters, counted with multiplicity
        header = trace.read_text().splitlines()[0]
        assert header == "lambda,re_delta,im_delta"

    def test_dirac_spectrum_trace_builds_once(self, small_complex_field, tmp_path, monkeypatch):
        # the trace reads the closure of both passes, so one build in all
        built = []
        original = floquet.step_polynomials

        def counting(*args):
            built.append(args[-1])
            return original(*args)

        monkeypatch.setattr(floquet, "step_polynomials", counting)
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "dirac-spectrum", "--field", small_complex_field, "--window", "-3", "3",
                "--steps", "256", "--trace-csv", str(trace), "--out", str(tmp_path / "s.json"),
            ]
        )
        assert code == 0
        assert built == [256]
        assert len(trace.read_text().splitlines()) == 482

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

    def test_auto_centers_are_the_critical_points(self, tmp_path):
        # the critical point 2.186 of this field lies 0.014 inside the rim of
        # a radius-0.2 circle at the integer 2, whose count 1.0098 passed the
        # integrality test: contour read 0.566019 when auto meant the integers
        field = tmp_path / "f.json"
        save_field(field_from_modes(2, {1: 0.3, -2: 0.2j}), field)
        vals = {}
        for method in ("contour", "direct"):
            out = tmp_path / f"{method}.json"
            argv = ["statistic", "--field", str(field), "--method", method,
                    "--g", "builtin:lorentzian:c=3", "--out", str(out)]
            assert main(argv) == 0
            vals[method] = json.loads(out.read_text())["value"]
        assert abs(vals["contour"] - 0.565309) < 1e-6
        assert abs(vals["contour"] - vals["direct"]) < 1e-9

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


class TestSchemas:
    @pytest.mark.parametrize(
        "path", sorted(SCHEMA_DIR.glob("*.schema.json")), ids=lambda path: path.name
    )
    def test_object_schemas_state_additional_properties(self, path):
        # an object schema silent on additionalProperties lets any other key through
        loose = [
            sorted(s["properties"])
            for s in object_schemas(json.loads(path.read_text()))
            if "additionalProperties" not in s
        ]
        assert loose == []
