"""Tests for the command-line drivers: flows, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import string
import subprocess
import sys
from importlib.metadata import EntryPoint, version
from importlib.util import find_spec
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stokesafem.adaptloop as adaptloop
import stokesafem.cli as cli
import stokesafem.threshold as threshold
from stokesafem.assembly import SolverFailure
from stokesafem.cli import main
from stokesafem.mesh import load_mesh, unit_square_partition
from stokesafem.problems import ProblemDef

ROOT = Path(__file__).resolve().parents[1]


def read_data_lines(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


# -- run -----------------------------------------------------------------


def test_run_adaptive_writes_artifacts(tmp_path, capsys):
    rc = main(["run", "--problem", "smooth-mms", "--mode", "adaptive",
               "--max-dofs", "600", "--out", str(tmp_path),
               "--export-mesh", "--dump-indicators"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "problem=smooth-mms" in out
    assert "rate[eta1]" in out
    trace = read_data_lines(tmp_path / "trace.csv")
    assert trace[0].startswith("k,N,leaves")
    assert len(trace) >= 4
    report = json.loads((tmp_path / "monitors.json").read_text())
    assert report["reference"] == "exact"
    assert np.isfinite(report["qo_constant"])
    part = load_mesh(tmp_path / "mesh.json")
    last = trace[-1].split(",")
    assert part.n_leaves == int(last[2])
    ind_lines = read_data_lines(tmp_path / "indicators.csv")
    assert ind_lines[0] == "elem,area,vol,div_l2,div_edge,osc,share"
    assert len(ind_lines) == part.n_leaves + 1


def test_run_uniform_short_trace(tmp_path, capsys):
    rc = main(["run", "--mode", "uniform", "--levels", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rate[eta1] unavailable" in out   # 3 points are too few to fit
    assert len(read_data_lines(tmp_path / "trace.csv")) == 4


def test_run_deterministic_outputs(tmp_path):
    args = ["run", "--problem", "smooth-mms", "--theta", "0.6",
            "--estimator", "eta2", "--max-dofs", "500", "--seed", "7"]
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(args + ["--out", str(out)]) == 0
        blobs.append(((out / "trace.csv").read_bytes(),
                      (out / "monitors.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# study configuration\n"
                   "problem=smooth-mms\n"
                   "mode=uniform\n"
                   "levels=3\n"
                   "out=" + str(tmp_path / "ignored") + "\n")
    out = tmp_path / "real"
    rc = main(["run", "--config", str(cfg), "--levels", "1",
               "--out", str(out)])
    assert rc == 0
    # the explicit flag overrides the file value of levels
    assert len(read_data_lines(out / "trace.csv")) == 3
    assert not (tmp_path / "ignored").exists()


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("volume=11\n")
    assert main(["run", "--config", str(bad_key)]) == 2
    assert "unknown config key" in capsys.readouterr().err

    bad_line = tmp_path / "bad2.cfg"
    bad_line.write_text("problem smooth-mms\n")
    assert main(["run", "--config", str(bad_line)]) == 2
    assert "expected key=value" in capsys.readouterr().err

    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err

    not_utf8 = tmp_path / "latin.cfg"
    not_utf8.write_bytes(b"levels=1\n\xff\xfe=2\n")
    assert main(["run", "--config", str(not_utf8)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: cannot read config file")


COMMANDS = sorted(cli._COMMANDS)


def _config_keys(command):
    return cli._COMMANDS[command][2]


def _foreign_keys(command):
    """Keys that only other subcommands take."""
    return sorted({key for other in COMMANDS for key in _config_keys(other)}
                  - set(_config_keys(command)))


_CFG_VALUE = st.text(alphabet=string.ascii_letters + string.digits + " .,:/_-", max_size=12)


def _valid_value(key):
    spec = cli._SETTINGS[key]
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if key == "dump_indicators":
        return st.sampled_from(["1", "true", "Yes", "on", "0", "false", "NO", "off"])
    if spec.get("type") is int:
        return st.integers(-10**6, 10**6).map(str)
    if spec.get("type") is float:
        return st.floats().map(repr)
    return _CFG_VALUE


def _accepted_line(command):
    """Lines the loader accepts for ``command``: comments, blanks, and its own
    keys (spelt with '-' or '_') with values its flags parse."""
    return st.one_of(
        st.sampled_from(_config_keys(command)).flatmap(
            lambda key: st.builds(lambda name, value: f"{name} = {value}".encode(),
                                  st.sampled_from([key, key.replace("_", "-")]),
                                  _valid_value(key))),
        st.builds(lambda text: f"# {text}".encode(), _CFG_VALUE),
        st.just(b""),
    )


_KEY_TEXT = st.text(alphabet=string.ascii_letters + string.digits + " _-", min_size=1,
                    max_size=12)


def _rejected_line(command):
    """Lines it rejects: no '=', a key unknown to every subcommand, a key that
    only another subcommand takes, a number that does not parse, or bytes that
    are not UTF-8."""
    keys = set(_config_keys(command))
    numeric = [key for key in keys if cli._SETTINGS[key].get("type") in (int, float)]
    return st.one_of(
        _KEY_TEXT.filter(lambda t: t.strip()).map(str.encode),
        st.builds(lambda key, value: f"{key}={value}".encode(),
                  _KEY_TEXT.filter(lambda k: k.strip().replace("-", "_") not in keys),
                  _CFG_VALUE),
        st.builds(lambda key, value: f"{key}={value}".encode(),
                  st.sampled_from(_foreign_keys(command)), _CFG_VALUE),
        st.builds(lambda key, value: f"{key}=x{value}".encode(),
                  st.sampled_from(sorted(numeric)), _CFG_VALUE),
        st.builds(lambda head, bad: head + bad,
                  st.sampled_from([b"", b"levels=", b"out=", b"# "]),
                  st.sampled_from([b"\xff\xfe=2", b"\xc3\x28", b"\x80", b"\xed\xa0\x80",
                                   b"\xf8\x88\x80\x80\x80"])),
    )


def _fuzz_file(command):
    return st.tuples(st.lists(_accepted_line(command), max_size=6),
                     st.lists(_rejected_line(command), min_size=1, max_size=3)) \
        .flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(COMMANDS).flatmap(
    lambda command: st.tuples(st.just(command), _fuzz_file(command))))
def test_config_fuzz_rejected_lines_exit_2(tmp_path_factory, case):
    command, lines = case
    cfg = tmp_path_factory.mktemp("cfg") / "fuzz.cfg"
    cfg.write_bytes(b"\n".join(lines) + b"\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(cfg)])
    assert rc == 2
    assert err.getvalue().startswith("configuration error: ")
    assert "Traceback" not in err.getvalue()


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(COMMANDS).flatmap(
    lambda command: st.tuples(st.just(command),
                              st.lists(_accepted_line(command), max_size=8))))
def test_config_fuzz_accepted_lines_load(tmp_path_factory, case):
    command, lines = case
    cfg = tmp_path_factory.mktemp("cfg") / "fuzz.cfg"
    cfg.write_bytes(b"\n".join(lines) + b"\n")
    ns = cli.build_parser().parse_args([command, "--config", str(cfg)])
    loaded = cli._Settings(ns, _config_keys(command)).file
    assert set(loaded) <= set(_config_keys(command))


FLAGS = {
    "run": {"--problem", "--seed", "--out", "--mode", "--theta", "--estimator",
            "--max-dofs", "--max-iterations", "--levels", "--eps", "--eps-sweep",
            "--indicator", "--max-generation", "--export-mesh", "--dump-indicators"},
    "threshold": {"--problem", "--seed", "--out", "--eps", "--eps-sweep", "--indicator",
                  "--max-generation", "--export-mesh"},
    "mesh-info": {"--problem", "--seed", "--out", "--mesh", "--levels", "--export-mesh"},
    "infsup": {"--problem", "--seed", "--out", "--levels"},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_config_keys_are_the_subcommand_flags(monkeypatch, tmp_path, capsys, command):
    # with the handler stubbed out, a key is accepted iff the loader knows it
    help_text, _, keys = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, (help_text, lambda _: 0, keys))
    accepted = set()
    for key in cli._SETTINGS:
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key}=1\n")
        main([command, "--config", str(cfg)])
        if "unknown config key" not in capsys.readouterr().err:
            accepted.add(key)
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {opt for action in subparsers.choices[command]._actions
               for opt in action.option_strings}
    flags = {"--" + key.replace("_", "-") for key in accepted}
    assert options == flags | {"--config", "-h", "--help"}
    assert flags == FLAGS[command]


@pytest.mark.parametrize("argv, line", [
    (["run"], "mesh=/nonexistent.json"),
    (["threshold", "--eps", "0.1"], "levels=2"),
    (["mesh-info"], "estimator=eta1"),
    (["infsup"], "max-generation=3"),
])
def test_config_key_of_another_subcommand_exits_2(monkeypatch, tmp_path, capsys,
                                                  argv, line):
    def no_refine(*args, **kwargs):
        raise AssertionError("refined before the config file was checked")

    for module in (cli, threshold, adaptloop):
        monkeypatch.setattr(module, "refine", no_refine)
    cfg = tmp_path / "other.cfg"
    cfg.write_text(f"# a key of another subcommand\n{line}\n")
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    key = line.partition("=")[0].replace("-", "_")
    assert capsys.readouterr().err == (f"configuration error: {cfg}:2: "
                                       f"unknown config key {key!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, line", [
    (["mesh-info"], "seed=abc"),                            # never read
    (["run"], "mode=bogus"),
    (["run", "--mode", "uniform"], "estimator=eta9"),
    (["run", "--mode", "uniform", "--levels", "1"], "levels=abc"),   # overridden
    (["run", "--mode", "threshold", "--eps", "0.1"], "dump_indicators=maybe"),
    (["threshold", "--eps", "0.1"], "max-generation=2.5"),
])
def test_config_values_are_checked_when_read(monkeypatch, tmp_path, capsys, argv, line):
    def no_refine(*args, **kwargs):
        raise AssertionError("refined before the config file was checked")

    for module in (cli, threshold, adaptloop):
        monkeypatch.setattr(module, "refine", no_refine)
    cfg = tmp_path / "values.cfg"
    cfg.write_text(f"problem = smooth-mms\n{line}\n")
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cfg}:2: ")
    assert "Traceback" not in err and err.count("\n") == 1
    assert not out.exists()


def test_empty_export_mesh_in_config_means_no_export(tmp_path, capsys):
    cfg = tmp_path / "info.cfg"
    cfg.write_text("export_mesh=\n")
    out = tmp_path / "out"
    assert main(["mesh-info", "--config", str(cfg), "--out", str(out)]) == 0
    assert "leaves: 4" in capsys.readouterr().out
    assert not out.exists()


def test_exit_code_on_config_errors(capsys):
    assert main(["run", "--problem", "no-such"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["run", "--theta", "1.5"]) == 2
    assert main(["run", "--mode", "threshold"]) == 2   # missing eps
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mode", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])                                        # missing subcommand
    assert exc.value.code == 2


@pytest.mark.parametrize("mode", ["adaptive", "uniform"])
@pytest.mark.parametrize("max_dofs", ["0", "-5"])
def test_dof_cap_below_one_exits_2_without_trace(tmp_path, capsys, mode, max_dofs):
    rc = main(["run", "--mode", mode, "--levels", "2", "--max-dofs", max_dofs,
               "--out", str(tmp_path)])
    assert rc == 2
    assert "max_dofs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_exit_code_on_solver_failure(monkeypatch, capsys, tmp_path):
    def boom(cfg, problem=None):
        raise SolverFailure("iteration 0: factorization produced nonfinite values")

    monkeypatch.setattr(cli, "adaptive_run", boom)
    rc = main(["run", "--out", str(tmp_path)])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["adaptive", "uniform"])
def test_exit_code_on_non_finite_data(monkeypatch, capsys, tmp_path, mode):
    def nan_f(xy):
        return np.full((len(np.atleast_2d(xy)), 2), np.nan)

    prob = ProblemDef(name="nan-load", make_partition=unit_square_partition,
                      f=nan_f, g=None, exact=None)
    monkeypatch.setattr(cli, "get_problem", lambda name: prob)
    rc = main(["run", "--mode", mode, "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "solver failure: iteration 0: non-finite" in err
    assert "Traceback" not in err


def test_exit_code_on_budget_error(tmp_path, capsys):
    rc = main(["threshold", "--indicator", "synthetic:area:1",
               "--eps", "1e-12", "--max-generation", "3",
               "--out", str(tmp_path)])
    assert rc == 4
    assert "budget exceeded" in capsys.readouterr().err


BAD_THRESHOLD_OPTIONS = [["--eps", "-1"], ["--eps", "nan"], ["--eps-sweep", "0.1,-0.5"],
                         ["--eps-sweep", "0.1,0"], ["--eps", "0.1", "--max-generation", "0"]]


@pytest.mark.parametrize("argv", [
    *(["threshold", *opts] for opts in BAD_THRESHOLD_OPTIONS),
    *(["run", "--mode", "threshold", *opts] for opts in BAD_THRESHOLD_OPTIONS),
    ["mesh-info", "--levels", "-2"],
    ["infsup", "--levels", "-1"],
])
def test_bad_numeric_options_exit_2_before_refining(monkeypatch, capsys, tmp_path, argv):
    def no_refine(*args, **kwargs):
        raise AssertionError("refined before the options were checked")

    monkeypatch.setattr(cli, "refine", no_refine)
    monkeypatch.setattr(threshold, "refine", no_refine)
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "--mode", "uniform"],
    ["run", "--mode", "threshold", "--eps", "0.1"],
    ["threshold", "--eps", "0.1"],
])
@pytest.mark.parametrize("below", [False, True])
def test_output_path_that_is_a_file_exits_2_before_refining(monkeypatch, capsys,
                                                            tmp_path, argv, below):
    def no_refine(*args, **kwargs):
        raise AssertionError("refined before the output directory was checked")

    for module in (cli, threshold, adaptloop):
        monkeypatch.setattr(module, "refine", no_refine)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if below else blocker
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot use output directory")
    assert "Traceback" not in err
    # and through the config file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out={out}\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("argv", [
    ["run", "--mode", "uniform", "--levels", "2"],
    ["run", "--mode", "threshold", "--eps", "0.1"],
    ["threshold", "--eps", "0.1"],
    ["mesh-info", "--levels", "1"],
])
@pytest.mark.parametrize("target", ["directory", "below-file", "below-missing",
                                    "default-is-directory"])
def test_export_mesh_path_that_cannot_be_a_file_exits_2_before_refining(
        monkeypatch, capsys, tmp_path, argv, target):
    def no_refine(*args, **kwargs):
        raise AssertionError("refined before the export path was checked")

    for module in (cli, threshold, adaptloop):
        monkeypatch.setattr(module, "refine", no_refine)
    out = tmp_path / "out"
    (out / "mesh.json").mkdir(parents=True)
    (tmp_path / "file").write_text("not a directory\n")
    export = {"directory": [str(tmp_path)],
              "below-file": [str(tmp_path / "file" / "mesh.json")],
              "below-missing": [str(tmp_path / "missing" / "mesh.json")],
              "default-is-directory": []}[target]
    assert main([*argv, "--out", str(out), "--export-mesh", *export]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot export mesh to ")
    assert "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == ["mesh.json"]


def test_indicator_error_mid_run_is_not_a_configuration_error(monkeypatch, tmp_path,
                                                              capsys):
    # a NaN load stops threshold mode with the run modes' exit code
    prob = ProblemDef(name="nan-load", make_partition=unit_square_partition,
                      f=lambda xy: np.full((len(xy), 2), np.nan), g=None, exact=None)
    monkeypatch.setattr(cli, "get_problem", lambda name: prob)
    rc = main(["threshold", "--eps", "0.1", "--out", str(tmp_path)])
    assert rc == cli.EXIT_SOLVER != cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("indicator failure: ") and "must be finite" in err
    assert err.count("\n") == 1


# -- threshold -----------------------------------------------------------


def test_threshold_single_eps(tmp_path, capsys):
    rc = main(["threshold", "--indicator", "synthetic:area:1",
               "--eps", "0.03125", "--out", str(tmp_path), "--export-mesh"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eps"] == 0.03125
    assert payload["n_leaves"] == 32
    assert load_mesh(tmp_path / "mesh.json").n_leaves == 32


def test_threshold_sweep_csv(tmp_path, capsys):
    rc = main(["threshold", "--indicator", "synthetic:area:1",
               "--eps-sweep", "0.125,0.0625", "--out", str(tmp_path)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and all(json.loads(ln) for ln in lines)
    data = read_data_lines(tmp_path / "sweep.csv")
    assert data[0] == "eps,n_leaves,sum_e"
    assert [int(row.split(",")[1]) for row in data[1:]] == [8, 16]


def test_threshold_requires_tolerance(capsys):
    assert main(["threshold", "--indicator", "synthetic:area:1"]) == 2
    assert "needs --eps" in capsys.readouterr().err
    assert main(["threshold", "--indicator", "wat", "--eps", "0.1"]) == 2


def test_run_mode_threshold(tmp_path, capsys):
    rc = main(["run", "--mode", "threshold", "--eps", "0.0625",
               "--indicator", "synthetic:area:1", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_leaves"] == 16


# -- mesh-info -----------------------------------------------------------


def test_mesh_info_problem(tmp_path, capsys):
    export = tmp_path / "lshape.json"
    rc = main(["mesh-info", "--problem", "lshape-smoothf",
               "--export-mesh", str(export)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "leaves: 12" in out
    assert "conforming: True" in out
    assert "stable_pair: True" in out
    assert export.exists()

    rc = main(["mesh-info", "--mesh", str(export), "--levels", "1"])
    assert rc == 0
    assert "leaves: 24" in capsys.readouterr().out


def test_export_mesh_accepts_explicit_path(tmp_path, capsys):
    custom = tmp_path / "final.json"
    rc = main(["run", "--problem", "smooth-mms", "--mode", "uniform",
               "--levels", "1", "--out", str(tmp_path / "arts"),
               "--export-mesh", str(custom)])
    assert rc == 0
    capsys.readouterr()
    assert custom.exists()
    assert not (tmp_path / "arts" / "mesh.json").exists()

    config = tmp_path / "run.cfg"
    config.write_text("export_mesh=true\nlevels=1\nmode=uniform\n")
    rc = main(["run", "--config", str(config), "--out", str(tmp_path / "cfg")])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "cfg" / "mesh.json").exists()

    rc = main(["mesh-info", "--out", str(tmp_path / "bare"), "--export-mesh"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "bare" / "mesh.json").exists()


def test_mesh_info_rejects_missing_file(capsys):
    assert main(["mesh-info", "--mesh", "/nonexistent/mesh.json"]) == 2
    assert "cannot load mesh" in capsys.readouterr().err


TRIANGLE = [[0, 0], [1, 0], [0, 1]]


@pytest.mark.parametrize("payload", [
    {"vertices": TRIANGLE, "triangles": [[0, 1, 5]]},
    {"vertices": [[0, 0], [1, 0], [0, float("nan")]], "triangles": [[0, 1, 2]]},
    {"vertices": TRIANGLE, "triangles": [[0, 1, -1]]},
    {"vertices": [[0, 0], [1, 0], [0, 1], [0.5, 2], [0.5, -1]],
     "triangles": [[0, 1, 2], [0, 1, 3], [1, 0, 4]]},
    {"vertices": TRIANGLE, "triangles": [[0, 1, 2.5]]},
    {"vertices": [[0, 0], [1, 0], [0, 1], [1, 1], [1, 0]],
     "triangles": [[0, 1, 2], [4, 3, 2]]},
    {"vertices": TRIANGLE, "triangles": [[0, 1, 2]], "boundary_markers": 5},
    {"vertices": TRIANGLE, "triangles": [[0, 1, 1e30]]},
    {"vertices": TRIANGLE, "triangles": [[0, 1, "2"]]},
    {"vertices": TRIANGLE, "triangles": [[0, True, 2]]},
], ids=["id-past-end", "nan-coordinate", "negative-id", "edge-in-three-triangles",
        "fractional-id", "duplicate-vertex", "scalar-boundary-markers",
        "id-overflow", "string-id", "bool-id"])
def test_mesh_info_rejects_malformed_mesh(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["mesh-info", "--mesh", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: cannot load mesh" in err
    assert "Traceback" not in err


# -- infsup --------------------------------------------------------------


def test_infsup_table(capsys):
    rc = main(["infsup", "--levels", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["level", "leaves", "dofs", "beta"]
    betas = [float(ln.split()[3]) for ln in lines[1:]]
    assert len(betas) == 2
    assert all(0.05 <= b <= 1.0 for b in betas)


def test_infsup_skips_large_systems(monkeypatch, capsys):
    monkeypatch.setattr(cli, "inf_sup_constant", lambda system: 0.42)
    rc = main(["infsup", "--levels", "12"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "skipped" in out and "4000" in out


# -- installed entry points ----------------------------------------------


def test_module_invocation_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "stokesafem.cli", "run", "--mode", "uniform",
         "--levels", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "rate[" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "stokesafem.cli", "run", "--problem", "nope"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2


def _entry_point():
    """The ``stokesafem`` console script as ``pyproject.toml`` declares it."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return EntryPoint(name="stokesafem", value=scripts["stokesafem"],
                      group="console_scripts")


def _check_version(script, env=None):
    proc = subprocess.run([script, "--version"], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "stokesafem" in proc.stdout


def test_console_script_installed(tmp_path):
    # The wrapper an installer generates for the declared entry point, so the
    # check needs no prior install and ignores any ``stokesafem`` on PATH.
    ep = _entry_point()
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / ep.name
    wrapper.write_text(f"#!{sys.executable}\n"
                       "import sys\n"
                       f"from {ep.module} import {ep.attr}\n"
                       "if __name__ == '__main__':\n"
                       f"    sys.exit({ep.attr}())\n")
    wrapper.chmod(0o755)
    script = shutil.which(ep.name, path=str(bin_dir))
    assert script, "console script 'stokesafem' not generated"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    _check_version(script, env)


def _wheel_builder_missing():
    if find_spec("pip") is None or find_spec("setuptools") is None:
        return True
    # setuptools below 70.1 builds wheels only through the ``wheel`` package
    major_minor = tuple(int(x) for x in version("setuptools").split(".")[:2])
    return find_spec("wheel") is None and major_minor < (70, 1)


@pytest.mark.skipif(_wheel_builder_missing(),
                    reason="no wheel builder: needs pip, setuptools, and "
                           "either the 'wheel' package or setuptools >= 70.1")
def test_pip_install_places_console_script(tmp_path):
    src_copy = tmp_path / "project"
    src_copy.mkdir()
    shutil.copy(ROOT / "pyproject.toml", src_copy)
    shutil.copytree(ROOT / "src", src_copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    venv = tmp_path / "venv"
    subprocess.run([sys.executable, "-m", "venv", "--system-site-packages",
                    "--without-pip", str(venv)], check=True, timeout=300)
    # the installed copy must run, not the checkout on PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [str(venv / "bin" / "python"), "-m", "pip", "install", "--quiet",
         "--disable-pip-version-check", "--no-build-isolation", "--no-deps",
         "--no-index", str(src_copy)],
        capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    _check_version(str(venv / "bin" / "stokesafem"), env)
