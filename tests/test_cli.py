"""End-to-end command tests driven through main(argv).

Each command writes real files into tmp_path; assertions read them back
through the public io module, so these also exercise format stability.
"""

import ast
import importlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import tomoflow
from tomoflow.cli import build_parser, main
from tomoflow.fields import (
    DensityMatrixGrid,
    MarginalField,
    PotentialSpec,
    TomographyParams,
    WignerField,
    uniform_grid,
)
from tomoflow.io import read_field
from tomoflow.states import StateKind, StateSpec, sample_marginal_field
from tomoflow.verify import SUITES, CheckResult

SMALL = {"direction_grid": [-1.5, 1.5, 33], "x_grid": [-8.0, 8.0, 129],
         "wigner_grid": [-4.0, 4.0, 65], "density_grid": [-3.0, 3.0, 21]}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


@pytest.fixture
def ground_field(tmp_path, small_config):
    out = tmp_path / "ground.csv"
    assert main(["sample-field", "--state", "ground",
                 "--config", small_config, "--out", str(out)]) == 0
    return str(out)


def test_help_exits_zero():
    assert main(["--help"]) == 0
    for command in ("state-wigner", "marginal", "sample-field", "evolve",
                    "invert", "density-matrix", "reduce", "check"):
        assert main([command, "--help"]) == 0


def test_usage_errors_exit_two():
    assert main([]) == 2
    assert main(["state-wigner", "--state", "nosuch", "--out", "x.csv"]) == 2
    assert main(["evolve", "--in", "a", "--dyn", "cubic", "--t", "1",
                 "--out", "b"]) == 2
    assert main(["check", "--suite", "nosuch", "--report", "r.json"]) == 2


def test_state_wigner_writes_field(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["state-wigner", "--state", "excited1",
                 "--out", str(out)]) == 0
    field = read_field(out)
    assert isinstance(field, WignerField)
    assert field.q_grid.size == 129
    i0 = np.argmin(np.abs(field.q_grid))
    assert field.values[i0, i0] == pytest.approx(-2.0, abs=1e-12)
    assert field.meta["command"] == "state-wigner"
    assert field.meta["state"] == "excited1"


def test_bare_state_name_uses_catalog_displacement(tmp_path):
    # oddcat is undefined at zero displacement, so the catalog value
    # must kick in when no --q0/--p0 is given
    out = tmp_path / "w.csv"
    assert main(["state-wigner", "--state", "oddcat",
                 "--out", str(out)]) == 0
    field = read_field(out)
    assert field.meta["q0"] == pytest.approx(np.sqrt(2.0))
    assert field.meta["p0"] == 0.0
    i0 = np.argmin(np.abs(field.q_grid))
    assert field.values[i0, i0] == pytest.approx(-2.0, abs=1e-12)


def test_explicit_displacement_overrides_catalog(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["state-wigner", "--state", "coherent", "--q0", "0.5",
                 "--out", str(out)]) == 0
    field = read_field(out)
    assert field.meta["q0"] == 0.5
    assert field.meta["p0"] == 0.0


def test_check_named_state_uses_catalog(tmp_path):
    report = tmp_path / "r.json"
    assert main(["check", "--suite", "evolution", "--state", "oddcat",
                 "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["all_passed"] is True


def test_marginal_worked_value(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["marginal", "--state", "excited1", "--mu", "1", "--nu", "0",
                 "--delta", "0", "--out", str(out)]) == 0
    field = read_field(out)
    assert field.params.mu == 1.0
    i0 = np.argmin(np.abs(field.x_grid))
    assert field.x_grid[i0] == 0.0
    assert field.values[i0] == pytest.approx(0.0, abs=1e-15)


def test_config_overrides_grid(tmp_path, small_config):
    out = tmp_path / "w.csv"
    assert main(["state-wigner", "--state", "ground",
                 "--config", small_config, "--out", str(out)]) == 0
    assert read_field(out).q_grid.size == 65


@pytest.mark.parametrize("entry", [5, [-1.5, 1.5], [-1.5, 1.5, 16.7],
                                   [-1.5, 1.5, "33"], [-1.5, 1.5, True],
                                   [-1.5, 1.5, 33, 0]])
def test_config_grid_entry_must_be_lo_hi_n(tmp_path, capsys, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"direction_grid": entry}))
    assert main(["sample-field", "--state", "ground", "--config", str(path),
                 "--out", str(tmp_path / "f.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "bad.json: direction_grid must be [lo, hi, n]" in err
    assert not (tmp_path / "f.csv").exists()


def test_config_grid_accepts_integral_float_n(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"wigner_grid": [-4.0, 4.0, 33.0]}))
    out = tmp_path / "w.csv"
    assert main(["state-wigner", "--state", "ground", "--config", str(path),
                 "--out", str(out)]) == 0
    assert read_field(out).q_grid.size == 33


def test_evolve_char_matches_analytic(tmp_path, ground_field):
    out = tmp_path / "e.csv"
    assert main(["evolve", "--in", ground_field, "--dyn", "free",
                 "--t", "0.5", "--solver", "char", "--out", str(out)]) == 0
    field = read_field(out)
    d = uniform_grid(-1.5, 1.5, 33)
    xg = uniform_grid(-8.0, 8.0, 129)
    ref = sample_marginal_field(StateSpec(StateKind.GROUND), d, d, xg,
                                t=0.5, potential=PotentialSpec.free())
    mu, nu = np.meshgrid(d, d, indexing="ij")
    mask = (np.hypot(mu, nu) >= 0.5)[:, :, None]
    err = float(np.where(mask, np.abs(field.values - ref.values), 0.0).max())
    assert err <= 1e-3
    # --solver selects nothing, so the header does not record it
    assert field.meta["command"] == "evolve" and "solver" not in field.meta


def test_evolve_pde_agrees_with_char(tmp_path, ground_field):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["evolve", "--in", ground_field, "--dyn", "free",
                 "--t", "0.5", "--solver", "char", "--out", str(a)]) == 0
    assert main(["evolve", "--in", ground_field, "--dyn", "free",
                 "--t", "0.5", "--solver", "pde", "--out", str(b)]) == 0
    # both solvers run the same single backtrace and resample
    assert np.array_equal(read_field(a).values, read_field(b).values)


def test_evolve_zero_time_is_identity(tmp_path, ground_field):
    out = tmp_path / "e0.csv"
    assert main(["evolve", "--in", ground_field, "--dyn", "harmonic",
                 "--t", "0", "--out", str(out)]) == 0
    assert np.array_equal(read_field(out).values,
                          read_field(ground_field).values)


def test_evolve_zero_time_records_its_time(tmp_path, ground_field):
    out = tmp_path / "e0.csv"
    assert main(["evolve", "--in", ground_field, "--dyn", "free",
                 "--t", "0", "--out", str(out)]) == 0
    meta = read_field(out).meta
    assert meta["time"] == meta["outflow"] == meta["mass_drift"] == 0.0


def test_evolve_linear_potential(tmp_path, ground_field):
    out = tmp_path / "el.csv"
    assert main(["evolve", "--in", ground_field, "--dyn", "linear:0.4",
                 "--t", "0.6", "--out", str(out)]) == 0
    assert read_field(out).meta["potential"] == (0.0, 0.4)


def test_evolve_input_validation(tmp_path, ground_field, capsys):
    wig = tmp_path / "w.csv"
    main(["state-wigner", "--state", "ground", "--out", str(wig)])
    assert main(["evolve", "--in", str(wig), "--dyn", "free", "--t", "1",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "MarginalField" in capsys.readouterr().err
    assert main(["evolve", "--in", str(tmp_path / "missing.csv"),
                 "--dyn", "free", "--t", "1",
                 "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("solver", ["pde", "char"])
@pytest.mark.parametrize("t", ["nan", "inf"])
def test_evolve_rejects_non_finite_time(tmp_path, ground_field, capsys,
                                        solver, t):
    assert main(["evolve", "--in", ground_field, "--dyn", "free", "--t", t,
                 "--solver", solver, "--out", str(tmp_path / "e.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert not (tmp_path / "e.csv").exists()


def test_evolve_refuses_a_box_that_does_not_surround_the_origin(tmp_path,
                                                                capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"direction_grid": [0.2, 1.5, 17],
                                  "x_grid": [-6.0, 6.0, 65]}))
    field, out = tmp_path / "f.csv", tmp_path / "e.csv"
    assert main(["sample-field", "--state", "ground", "--config", str(config),
                 "--out", str(field)]) == 0
    assert main(["evolve", "--in", str(field), "--dyn", "free", "--t", "0.5",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "surround the origin" in err
    assert not out.exists()


def test_evolve_refuses_a_header_meta_that_is_not_an_object(tmp_path, capsys,
                                                            ground_field):
    path = pathlib.Path(ground_field)
    head, body = path.read_text().split("\n", 1)
    header = json.loads(head[len("#META "):])
    header["meta"] = [1, 2]
    path.write_text("#META " + json.dumps(header) + "\n" + body)
    assert main(["evolve", "--in", ground_field, "--dyn", "free", "--t", "1",
                 "--out", str(tmp_path / "e.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "header meta is not a JSON object" in err
    assert not (tmp_path / "e.csv").exists()


def test_invert_recovers_wigner(tmp_path, ground_field, small_config):
    out = tmp_path / "wi.csv"
    assert main(["invert", "--in", ground_field, "--config", small_config,
                 "--out", str(out)]) == 0
    field = read_field(out)
    i0 = np.argmin(np.abs(field.q_grid))
    assert field.values[i0, i0] == pytest.approx(2.0, abs=1e-2)


def test_density_matrix_from_file(tmp_path, ground_field, small_config):
    out = tmp_path / "dm.csv"
    assert main(["density-matrix", "--in", ground_field,
                 "--config", small_config, "--out", str(out)]) == 0
    dm = read_field(out)
    i0 = np.argmin(np.abs(dm.q_grid))
    assert dm.values[i0, i0].real == pytest.approx(1.0 / np.sqrt(np.pi),
                                                   abs=1e-3)
    assert dm.trace() == pytest.approx(1.0, abs=1e-3)


def test_reconstructions_carry_the_warnings_of_their_field(tmp_path):
    # the X box cuts this cat's slices, and the free shear carries lookups
    # past the X ends, so the evolved field warns; invert and density-matrix
    # keep those warnings ahead of their own
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "direction_grid": [-1.5, 1.5, 33], "x_grid": [-5.0, 5.0, 129],
        "wigner_grid": [-4.0, 4.0, 33], "density_grid": [-3.0, 3.0, 21]}))
    cat, evolved = tmp_path / "c.csv", tmp_path / "e.csv"
    assert main(["sample-field", "--state", "oddcat", "--q0", "3.5",
                 "--config", str(config), "--out", str(cat)]) == 0
    assert main(["evolve", "--in", str(cat), "--dyn", "free",
                 "--t", "1", "--out", str(evolved)]) == 0
    carried, meta = read_field(evolved).warnings, read_field(evolved).meta
    assert [w.split()[0] for w in carried] == ["boundary", "mass"]
    # the header carries the numbers the warnings quote
    assert carried[0].startswith(f"boundary outflow: {meta['outflow']:.2%}")
    assert carried[1].startswith(f"mass drift {meta['mass_drift']:.2%}")
    for command in ("invert", "density-matrix"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--in", str(evolved), "--config", str(config),
                     "--out", str(out)]) == 0
        warnings = read_field(out).warnings
        assert warnings[:2] == carried
        assert warnings[2].startswith("chi truncated")


def test_headers_keep_the_header_of_their_input_whole(tmp_path, small_config):
    # each command writes what it measured once; a command that reads a
    # file keeps that file's header meta under "input", so a harmonic
    # step followed by a free one leaves both on record
    cat, evolved = tmp_path / "c.csv", tmp_path / "e.csv"
    assert main(["sample-field", "--state", "oddcat", "--dyn", "harmonic",
                 "--t", "1", "--config", small_config, "--out", str(cat)]) == 0
    assert main(["evolve", "--in", str(cat), "--dyn", "free", "--t", "1",
                 "--out", str(evolved)]) == 0
    meta = read_field(evolved).meta
    assert meta["command"] == "evolve" and "t" not in meta
    assert meta["time"] == 1.0 and meta["potential"] == (0.0,)
    assert meta["input"] == read_field(cat).meta
    assert meta["input"]["command"] == "sample-field"
    assert meta["input"]["t"] == 1.0
    assert meta["input"]["potential"] == (0.0, 0.0, 0.5)
    for command in ("invert", "density-matrix"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--in", str(evolved), "--config", small_config,
                     "--out", str(out)]) == 0
        field = read_field(out)
        assert field.meta["command"] == command and "s" not in field.meta
        assert field.meta["input"] == meta
        assert field.meta["input"]["command"] == "evolve"
    # a slice's direction is its params block, not a meta key
    out = tmp_path / "m.csv"
    assert main(["marginal", "--state", "ground", "--mu", "0.6", "--nu",
                 "-0.8", "--delta", "0.3", "--out", str(out)]) == 0
    field = read_field(out)
    assert field.params == TomographyParams(0.6, -0.8, 0.3)
    assert not {"mu", "nu", "delta"} & set(field.meta)


def test_reduce_prints_transport_terms(capsys):
    assert main(["reduce", "--potential", "0,0,0.5"]) == 0
    out = capsys.readouterr().out
    assert "+1*mu*d/dnu" in out
    assert "-1*nu*d/dmu" in out


def test_reduce_rejects_cubic(capsys):
    assert main(["reduce", "--potential", "0,0,0,1"]) == 1
    assert "antiderivative" in capsys.readouterr().err


def test_check_worked_values_suite(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["check", "--suite", "paper-examples",
                 "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["all_passed"]
    assert len(data["results"]) == 10
    assert all(r["passed"] for r in data["results"])
    assert "PASS ground-wigner-origin" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--state", "ground"], ["--q0", "1"],
                                   ["--p0", "1"]])
def test_check_paper_examples_refuses_state_flags(tmp_path, capsys, flags):
    # the worked values are fixed states: a state flag would be ignored
    report = tmp_path / "report.json"
    assert main(["check", "--suite", "paper-examples", *flags,
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flags[0] in err
    assert not report.exists()


@pytest.mark.parametrize("suite", ["roundtrip", "evolution"])
@pytest.mark.parametrize("flag", ["--q0", "--p0"])
def test_check_displacement_needs_a_state(tmp_path, capsys, suite, flag):
    # without --state the suite runs the catalog, which the flag cannot move
    report = tmp_path / "report.json"
    assert main(["check", "--suite", suite, flag, "1",
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and "--state" in err
    assert not report.exists()


def test_check_evolution_suite(tmp_path):
    report = tmp_path / "report.json"
    assert main(["check", "--suite", "evolution", "--state", "ground",
                 "--report", str(report)]) == 0
    names = [r["name"] for r in json.loads(report.read_text())["results"]]
    assert "reduction-free-exact" in names
    assert "pde-free-ground" in names


def test_check_failure_still_writes_report(tmp_path, monkeypatch):
    report = tmp_path / "report.json"
    monkeypatch.setitem(SUITES, "paper-examples", lambda states: [
        CheckResult("synthetic", False, 1.0, 0.1, {})])
    assert main(["check", "--suite", "paper-examples",
                 "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert not data["all_passed"]
    assert data["results"][0]["name"] == "synthetic"


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tomoflow", "reduce", "--potential", "0,0.7"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "d/dX" in proc.stdout


def test_evolve_demo_script_writes_readable_snapshots(tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "evolve_demo.py"),
         "--n-dir", "17", "--n-x", "65", "--times", "0.3", "1.0",
         "--out-dir", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    times = sorted(read_field(path).meta["time"]
                   for path in tmp_path.glob("*.csv"))
    assert times == [0.3, 1.0]


def test_reconstruction_demo_script_imports_what_it_names():
    # --help runs every import at the top of the script, so a library name
    # it uses that goes away fails here
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reconstruction_demo.py"),
         "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "--state" in proc.stdout


def test_readme_imports_what_it_names():
    # every name README.md's python blocks import from tomoflow exists; the
    # blocks are parsed, not run
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md")
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    names = [(node.module, alias.name) for block in blocks
             for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "tomoflow"
             for alias in node.names]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_readme_command_lines_parse():
    # every `tomoflow ...` line of README.md's sh blocks, trailing comment
    # stripped, is a valid command line; the commands are parsed, not run
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md")
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    lines = [line.split(" # ")[0] for block in blocks
             for line in block.splitlines() if line.startswith("tomoflow ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README.md command line does not parse: {line}")


def test_benchmark_tracer_finds_what_it_patches(monkeypatch):
    # the benchmark's tracer wraps library names by attribute; a name it
    # binds that goes away fails here, naming the attribute, instead of in
    # every traced benchmark run
    root = pathlib.Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    tracing = importlib.import_module("tracing")
    patches = tracing.install(tracing.Tracer("contract"))
    try:
        assert patches
    finally:
        tracing.uninstall(patches)
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_benchmark_tracer_counts_each_source_kind_once(monkeypatch):
    # the benchmark counts a callable's marginal points and a table
    # source's unit_slices rows; chi on 9 x 9 mirrored grids reads 5
    # a-rows of 9 angles, from either kind, and only one counter moves
    root = pathlib.Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    tracing = importlib.import_module("tracing")
    tomography = importlib.import_module("tomoflow.tomography")
    states = importlib.import_module("tomoflow.states")
    ground = states.CATALOG["ground"]
    table = tomography.RadonMarginalEvaluator(
        states.wigner_evaluator(ground), n_phi=8, y_grid=uniform_grid(-6.0, 6.0, 41))
    grid = uniform_grid(-2.0, 2.0, 9)
    counts = {}
    for kind, source in (("callable", states.marginal_evaluator(ground)),
                         ("table", table)):
        tracer = tracing.Tracer("contract")
        tracer.pass_index = 0
        patches = tracing.install(tracer)
        try:
            tomography.characteristic_from_marginal(source, grid, grid)
        finally:
            tracing.uninstall(patches)
        counts[kind] = tracer.counts.get(0, {})
    assert counts["callable"] == {
        "states.marginal_points": 5 * 9 * tomography.CALLABLE_Y_GRID.size}
    assert counts["table"] == {"tomography.unit_slices.rows": 5 * 9}


def test_dyn_and_potential_take_both_syntaxes(tmp_path, ground_field, capsys):
    assert main(["reduce", "--potential", "harmonic"]) == 0
    named = capsys.readouterr().out
    assert main(["reduce", "--potential", "0,0,0.5"]) == 0
    assert capsys.readouterr().out == named
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for dyn, out in (("linear:0.4", a), ("0,0.4", b)):
        assert main(["evolve", "--in", ground_field, "--dyn", dyn,
                     "--t", "0.3", "--out", str(out)]) == 0
    assert np.array_equal(read_field(a).values, read_field(b).values)
    assert main(["reduce", "--potential", "linear:x"]) == 2
    assert main(["reduce", "--potential", "0,nan"]) == 2


def test_state_commands_parse_dyn_as_a_potential(tmp_path, small_config,
                                                 capsys):
    # --t alone moves the state under V = 0, as --dyn free does
    bare, free, still = (tmp_path / f"{name}.csv"
                         for name in ("bare", "free", "still"))
    for dyn, out in (([], bare), (["--dyn", "free"], free)):
        assert main(["state-wigner", "--state", "coherent", "--t", "1",
                     "--config", small_config, "--out", str(out)] + dyn) == 0
    assert bare.read_bytes() == free.read_bytes()
    assert main(["state-wigner", "--state", "coherent", "--config",
                 small_config, "--out", str(still)]) == 0
    assert not np.allclose(read_field(still).values, read_field(bare).values)
    # the state commands' headers carry the potential, as evolve's do
    assert read_field(bare).meta["potential"] == (0.0,)
    out = tmp_path / "m.csv"
    assert main(["marginal", "--state", "excited1", "--mu", "1", "--nu", "0",
                 "--dyn", "0,0,0.5", "--t", "1", "--out", str(out)]) == 0
    assert read_field(out).meta["potential"] == (0.0, 0.0, 0.5)
    assert "dyn" not in read_field(out).meta
    field = tmp_path / "f.csv"
    assert main(["sample-field", "--state", "ground", "--dyn", "static",
                 "--out", str(field)]) == 2
    capsys.readouterr()
    assert main(["sample-field", "--state", "ground", "--config", small_config,
                 "--dyn", "linear:0.5", "--t", "1", "--out", str(field)]) == 1
    assert "free and harmonic motion" in capsys.readouterr().err
    assert not field.exists()


def modules_after(code: str, package: str) -> list[str]:
    """The modules of package a fresh interpreter holds after running code."""
    src = pathlib.Path(tomoflow.__file__).resolve().parent.parent
    probe = code + (
        "\nimport sys\nprint(*(m for m in sys.modules"
        f" if m == {package!r} or m.startswith({package + '.'!r})))")
    proc = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    return proc.stdout.splitlines()[-1].split()  # the probe prints last


def test_cli_import_loads_only_the_file_and_state_layers():
    # every CLI process pays this import; each command imports the
    # evolution, tomography and verify layers itself
    assert sorted(modules_after("import tomoflow.cli", "tomoflow")) == [
        "tomoflow", "tomoflow.cli", "tomoflow.fields", "tomoflow.io",
        "tomoflow.states"]


def test_cli_import_and_sample_field_load_no_scipy(tmp_path, small_config):
    assert modules_after("import tomoflow.cli", "scipy") == []
    out = tmp_path / "f.csv"
    argv = ["sample-field", "--state", "oddcat", "--config", small_config,
            "--out", str(out)]
    assert modules_after(
        f"from tomoflow.cli import main\nassert main({argv!r}) == 0", "scipy") == []
    assert isinstance(read_field(out), MarginalField)


@pytest.mark.parametrize("command, kind", [("invert", WignerField),
                                           ("density-matrix", DensityMatrixGrid)])
def test_inversion_commands_load_no_scipy(tmp_path, ground_field, small_config,
                                          command, kind):
    out = tmp_path / "out.csv"
    argv = [command, "--in", ground_field, "--config", small_config,
            "--out", str(out)]
    assert modules_after(
        f"from tomoflow.cli import main\nassert main({argv!r}) == 0", "scipy") == []
    assert isinstance(read_field(out), kind)


def test_check_roundtrip_loads_no_scipy(tmp_path):
    report = tmp_path / "r.json"
    argv = ["check", "--suite", "roundtrip", "--state", "ground",
            "--report", str(report)]
    assert modules_after(
        f"from tomoflow.cli import main\nassert main({argv!r}) == 0", "scipy") == []
    assert json.loads(report.read_text())["all_passed"] is True


def test_evolve_loads_no_interpolation_module(tmp_path, ground_field):
    argv = ["evolve", "--in", ground_field, "--dyn", "free", "--t", "0.5",
            "--out", str(tmp_path / "e.csv")]
    assert modules_after(
        f"from tomoflow.cli import main\nassert main({argv!r}) == 0", "scipy") == []


def test_reduce_and_evolution_check_load_no_scipy(tmp_path):
    report = tmp_path / "r.json"
    for argv in (["reduce", "--potential", "harmonic"],
                 ["check", "--suite", "evolution", "--state", "ground",
                  "--report", str(report)]):
        assert modules_after(
            f"from tomoflow.cli import main\nassert main({argv!r}) == 0", "scipy") == []
    assert json.loads(report.read_text())["all_passed"] is True


def test_no_module_imports_scipy():
    # scipy is a test dependency only: no module of the package imports it,
    # at module level or inside a function.
    package = pathlib.Path(tomoflow.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], \
                f"{path.name}:{node.lineno} imports scipy"
