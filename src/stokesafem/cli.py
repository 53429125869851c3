"""Command-line drivers for the adaptive Stokes pipeline.

Subcommands:

* ``run``       - adaptive or uniform refinement study; writes a trace CSV
  and a monitor JSON, prints a convergence table;
* ``threshold`` - greedy threshold refinement over one or more tolerances;
  writes a sweep CSV, prints one JSON line per tolerance;
* ``mesh-info`` - mesh statistics for a built-in problem or a mesh file;
* ``infsup``    - discrete stability constants over nested refinements.

Configuration comes from defaults, then a flat ``key=value`` file given with
``--config``, then explicit command-line flags (highest precedence).  Every
setting is declared once, in ``_SETTINGS``; a config file takes exactly the
running subcommand's flag names as keys and is parsed as its flags are when
it is read.  Outputs are deterministic: identical configuration produces
byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 solver failure or invalid
indicator values, 4 budget or termination error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .adaptloop import (
    AdaptiveConfig,
    adaptive_run,
    monitor_report,
    monitor_report_json,
    uniform_run,
    write_csv,
    write_trace_csv,
)
from .assembly import SolverFailure, assemble, inf_sup_constant
from .estimators import ESTIMATOR_KINDS, marking_shares
from .femspace import build_dofmap
from .mesh import load_mesh, refine, save_mesh
from .problems import get_problem
from .threshold import (
    MAX_GENERATION,
    BudgetExceeded,
    IndicatorFailure,
    check_threshold_args,
    eps_sweep,
    indicator_from_spec,
    write_sweep_csv,
)

__all__ = ["ConfigError", "main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4


class ConfigError(Exception):
    """Invalid configuration (bad value, unknown key, missing input)."""


# -- configuration plumbing ---------------------------------------------


def _load_config_file(path: str, keys) -> dict:
    """The file's settings, restricted to ``keys``; each value is parsed as
    its flag parses it (see ``_SETTINGS``) and checked here, whether or not
    the run reads it."""
    cfg = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        spec = _SETTINGS[key]
        try:
            cfg[key] = spec.get("file_type", spec.get("type", str))(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
        choices = spec.get("choices")
        if choices and cfg[key] not in choices:
            raise ConfigError(f"{where}: {key} must be one of "
                              f"{', '.join(choices)}, got {cfg[key]!r}")
    return cfg


class _Settings:
    """Merged view: CLI flag beats config file beats default."""

    def __init__(self, ns: argparse.Namespace, keys):
        self.ns = ns
        self.file = _load_config_file(ns.config, keys) if ns.config else {}

    def get(self, key: str, default=None):
        value = getattr(self.ns, key)
        return self.file.get(key, default) if value is None else value


def _problem(st: _Settings):
    try:
        return get_problem(st.get("problem", AdaptiveConfig.problem))
    except KeyError as exc:
        raise ConfigError(str(exc.args[0])) from exc


def _levels(st: _Settings, default: int, part=None) -> int:
    """The ``levels`` setting, checked; given the initial partition, also
    held to the default dof budget: each level doubles the leaves, and a
    mesh with more leaves than the budget also has more dofs."""
    levels, budget = st.get("levels", default), AdaptiveConfig.max_dofs
    if levels < 0:
        raise ConfigError(f"levels must be >= 0, got {levels}")
    if part is not None and part.n_leaves * 2 ** levels > budget:
        raise ConfigError(f"levels={levels} refines {part.n_leaves} leaves to "
                          f"{part.n_leaves} * 2^{levels}, more than the "
                          f"default dof budget max_dofs={budget}")
    return levels


def _bool_cast(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _mesh_target_cast(text: str):
    """Config value for export_mesh: a boolean or an output path."""
    try:
        return _bool_cast(text)
    except ValueError:
        return text.strip()


def _outputs(st: _Settings, artifacts: bool = True) -> tuple[Path, Path | None]:
    """The output directory and the file ``--export-mesh`` names, or None.

    The directory is created if missing, when the command writes
    ``artifacts`` into it or exports a mesh.  An output path that cannot be
    a directory, or an export path that is a directory or whose parent is not
    an existing directory, is a configuration error.
    """
    export = st.get("export_mesh", False)
    out = Path(st.get("out", "."))
    if artifacts or export:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {str(out)!r}: {exc}") from exc
    if not export:
        return out, None
    dest = out / "mesh.json" if export is True else Path(export)
    if dest.is_dir():
        raise ConfigError(f"cannot export mesh to {str(dest)!r}: it is a directory")
    if not dest.parent.is_dir():
        raise ConfigError(f"cannot export mesh to {str(dest)!r}: "
                          f"{str(dest.parent)!r} is not a directory")
    return out, dest


def _provenance(st: _Settings, **extra: str) -> dict[str, str]:
    """The configuration lines a CSV artifact carries besides its own."""
    return {"seed": str(st.get("seed", 0)), "version": __version__, **extra}


# -- run subcommand ------------------------------------------------------


def _print_convergence_table(trace, report) -> None:
    kind = trace.estimator
    print(f"problem={trace.problem} mode={trace.mode} estimator={kind} "
          f"theta={trace.theta:g}")
    print(f"{'k':>4} {'N':>8} {'leaves':>8} {'dofs':>8} "
          f"{kind:>12} {'total_err':>12} {'marked':>7}")
    for row in trace.rows:
        print(f"{row.k:>4} {row.N:>8} {row.leaves:>8} "
              f"{row.n_u + row.n_p:>8} {getattr(row, kind):>12.5e} "
              f"{row.total_err:>12.5e} {row.n_marked:>7}")
    for label, s, r2 in ((kind, report.rate_eta, report.rate_eta_r2),
                         ("total_err", report.rate_total_err,
                          report.rate_total_err_r2)):
        if math.isnan(s):
            print(f"rate[{label}] unavailable")
        else:
            print(f"rate[{label}] s={s:.4f} r2={r2:.4f}")


def _dump_indicators_csv(trace, path) -> None:
    ind = trace.final_indicators
    part = trace.final_partition
    write_csv(path, {"estimator": trace.estimator, "problem": trace.problem},
              ("elem", "area", "vol", "div_l2", "div_edge", "osc", "share"),
              zip(part.leaves, part.areas, ind.vol, ind.div_l2, ind.div_edge,
                  ind.osc, marking_shares(trace.estimator, ind)))


def cmd_run(st: _Settings) -> int:
    """Every setting given is checked, whatever the mode, before any output."""
    levels = _levels(st, 5)
    keys = ("problem", "estimator", "theta", "max_iterations", "max_dofs")
    given = {key: st.get(key) for key in keys if st.get(key) is not None}
    try:
        cfg = AdaptiveConfig(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    prob = _problem(st)
    out, dest = _outputs(st)
    if st.get("mode", "adaptive") == "adaptive":
        trace = adaptive_run(cfg, problem=prob)
    else:
        trace = uniform_run(prob, levels, estimator=cfg.estimator,
                            max_dofs=cfg.max_dofs)

    write_trace_csv(trace, out / "trace.csv", extra_provenance=_provenance(st))
    report = monitor_report(trace)
    (out / "monitors.json").write_text(monitor_report_json(report) + "\n",
                                       encoding="utf-8")
    if dest is not None:
        save_mesh(trace.final_partition, dest)
    if st.get("dump_indicators", False):
        _dump_indicators_csv(trace, out / "indicators.csv")
    _print_convergence_table(trace, report)
    return EXIT_OK


# -- threshold subcommand ------------------------------------------------


def _report_payload(rep) -> dict:
    return {
        "eps": rep.eps,
        "indicator": rep.indicator,
        "n_initial": rep.n_initial,
        "n_leaves": rep.n_leaves,
        "n_added": rep.n_added,
        "sum_e": rep.sum_e,
        "rounds": list(rep.rounds),
        "buckets": {str(j): m for j, m in rep.buckets.items()},
    }


def _threshold_settings(st: _Settings, prob):
    """The indicator, tolerances and generation cap of a threshold run, each
    checked.  ``--eps`` is one tolerance or a comma-separated list."""
    max_gen = st.get("max_generation", MAX_GENERATION)
    eps_text = st.get("eps")
    if eps_text is None:
        raise ConfigError("threshold needs --eps")
    try:
        eps_values = [float(tok) for tok in eps_text.split(",") if tok]
    except ValueError:
        eps_values = []
    if not eps_values:
        raise ConfigError(f"bad eps list {eps_text!r}")
    try:
        indicator = indicator_from_spec(st.get("indicator", "osc"), f=prob.f)
        check_threshold_args(eps_values, max_gen)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return indicator, eps_values, max_gen


def cmd_threshold(st: _Settings) -> int:
    prob = _problem(st)
    indicator, eps_values, max_gen = _threshold_settings(st, prob)
    out, dest = _outputs(st)
    reports = eps_sweep(prob.make_partition(), indicator, eps_values, max_gen)
    write_sweep_csv(reports, out / "sweep.csv",
                    extra_provenance=_provenance(st, problem=prob.name))
    for rep in reports:
        print(json.dumps(_report_payload(rep), sort_keys=True))
    if dest is not None:
        save_mesh(reports[-1].partition, dest)
    return EXIT_OK


# -- mesh-info subcommand ------------------------------------------------


def cmd_mesh_info(st: _Settings) -> int:
    prob = _problem(st)          # checked even when a mesh file overrides it
    mesh_path = st.get("mesh")
    if mesh_path:
        try:
            part = load_mesh(mesh_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load mesh {mesh_path!r}: {exc}") from exc
        source = mesh_path
    else:
        part = prob.make_partition()
        source = prob.name
    levels = _levels(st, 0, part)
    _, dest = _outputs(st, artifacts=False)
    for _ in range(levels):
        part = refine(part, part.leaves)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        dm = build_dofmap(part)
    stats = part.stats()
    print(f"source: {source}")
    print(f"leaves: {stats.n_leaves}")
    print(f"vertices: {dm.n_vertices}")
    print(f"edges: {part.n_edges}")
    print(f"n_u: {dm.n_u}")
    print(f"n_p: {dm.n_p}")
    print(f"dofs: {dm.n_dofs}")
    print(f"shape_constant: {stats.sigma_shape:.17g}")
    print(f"grading_constant: {stats.sigma_grading:.17g}")
    print(f"generations: {stats.min_generation}..{stats.max_generation}")
    print(f"conforming: {part.is_conforming()}")
    print(f"stable_pair: {dm.meets_stability}")
    if dest is not None:
        save_mesh(part, dest)
    return EXIT_OK


# -- infsup subcommand ---------------------------------------------------


def cmd_infsup(st: _Settings) -> int:
    prob = _problem(st)
    part = prob.make_partition()
    levels = _levels(st, 3, part)
    print(f"{'level':>5} {'leaves':>8} {'dofs':>8} {'beta':>12}")
    for level in range(levels + 1):
        dm = build_dofmap(part)
        beta = inf_sup_constant(assemble(part, dm, prob.f, prob.g))
        print(f"{level:>5} {part.n_leaves:>8} {dm.n_dofs:>8} {beta:>12.6f}")
        if level < levels:
            part = refine(part, part.leaves)
    return EXIT_OK


# -- settings table and parser ---------------------------------------------

# Every setting once, as its flag's argparse keywords.  A config file value
# is parsed with ``type`` (``file_type`` where the file spells a boolean) and
# checked against ``choices``.
_SETTINGS = {
    "config": {"help": "flat key=value configuration file"},
    "problem": {"help": "built-in problem id"},
    "seed": {"type": int, "help": "seed echoed into provenance"},
    "out": {"help": "output directory (default: current)"},
    "mode": {"choices": ("adaptive", "uniform"),
             "help": "adaptive (default) or uniform refinement; threshold "
                     "runs are the threshold subcommand"},
    "theta": {"type": float, "help": "marking fraction in (0,1]"},
    "estimator": {"choices": ESTIMATOR_KINDS},
    "max_dofs": {"type": int},
    "max_iterations": {"type": int},
    "levels": {"type": int, "help": "uniform refinement sweeps"},
    "eps": {"help": "threshold tolerance, or comma-separated tolerances"},
    "indicator": {"help": "osc or synthetic:area:<exponent> (default osc)"},
    "max_generation": {"type": int},
    "mesh": {"help": "mesh JSON file (overrides --problem)"},
    "export_mesh": {"nargs": "?", "const": True, "metavar": "PATH",
                    "file_type": _mesh_target_cast,
                    "help": "write the final mesh as JSON "
                            "(default <out>/mesh.json)"},
    "dump_indicators": {"action": "store_const", "const": True,
                        "file_type": _bool_cast,
                        "help": "write per-element indicator values as CSV"},
}

_COMMON = ("problem",)

# subcommand: (help, handler, the settings its flags and config file take)
_COMMANDS = {
    "run": ("adaptive/uniform refinement study", cmd_run,
            (*_COMMON, "seed", "out", "mode", "theta", "estimator", "max_dofs",
             "max_iterations", "levels", "export_mesh", "dump_indicators")),
    "threshold": ("greedy threshold refinement", cmd_threshold,
                  (*_COMMON, "seed", "out", "eps", "indicator",
                   "max_generation", "export_mesh")),
    "mesh-info": ("mesh statistics", cmd_mesh_info,
                  (*_COMMON, "out", "mesh", "levels", "export_mesh")),
    "infsup": ("discrete stability constants", cmd_infsup,
               (*_COMMON, "levels")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokesafem",
        description="Adaptive Taylor-Hood finite elements for the Stokes "
                    "problem: refinement studies, error estimation, and "
                    "stability diagnostics.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in ("config", *keys):
            kwargs = {k: v for k, v in _SETTINGS[key].items() if k != "file_type"}
            p.add_argument("--" + key.replace("_", "-"), **kwargs)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    _, handler, keys = _COMMANDS[ns.command]
    try:
        return handler(_Settings(ns, keys))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except IndicatorFailure as exc:
        print(f"indicator failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
