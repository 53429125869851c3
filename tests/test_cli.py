"""Tests for the command-line drivers: flows, exit codes, determinism."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, version
from importlib.util import find_spec
from pathlib import Path

import numpy as np
import pytest

import stokesafem.cli as cli
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


@pytest.mark.parametrize("vertices, triangles", [
    ([[0, 0], [1, 0], [0, 1]], [[0, 1, 5]]),
    ([[0, 0], [1, 0], [0, float("nan")]], [[0, 1, 2]]),
    ([[0, 0], [1, 0], [0, 1]], [[0, 1, -1]]),
    ([[0, 0], [1, 0], [0, 1], [0.5, 2], [0.5, -1]], [[0, 1, 2], [0, 1, 3], [1, 0, 4]]),
], ids=["id-past-end", "nan-coordinate", "negative-id", "edge-in-three-triangles"])
def test_mesh_info_rejects_malformed_mesh(tmp_path, capsys, vertices, triangles):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": vertices, "triangles": triangles}))
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
