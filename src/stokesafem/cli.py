"""Command-line drivers for the adaptive Stokes pipeline.

Subcommands:

* ``run``       - adaptive or uniform refinement study (or a threshold run via
  ``--mode threshold``); writes a trace CSV and a monitor JSON, prints a
  convergence table;
* ``threshold`` - greedy threshold refinement for one tolerance or a sweep;
* ``mesh-info`` - mesh statistics for a built-in problem or a mesh file;
* ``infsup``    - discrete stability constants over nested refinements.

Configuration comes from defaults, then a flat ``key=value`` file given with
``--config``, then explicit command-line flags (highest precedence).  Outputs
are deterministic: identical configuration produces byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 solver failure or invalid
indicator values, 4 budget or termination error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import __version__
from .adaptloop import (
    AdaptiveConfig,
    adaptive_run,
    fit_rate,
    monitor_report,
    monitor_report_json,
    uniform_run,
    write_trace_csv,
)
from .assembly import SolverFailure, assemble, inf_sup_constant
from .estimators import ESTIMATOR_KINDS
from .femspace import build_dofmap
from .mesh import load_mesh, refine, save_mesh
from .problems import get_problem
from .threshold import (
    BudgetExceeded,
    IndicatorFailure,
    check_threshold_args,
    eps_sweep,
    greedy_threshold,
    indicator_from_spec,
    write_sweep_csv,
)

__all__ = ["ConfigError", "main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4

_CONFIG_KEYS = {
    "problem", "mode", "theta", "estimator", "max_dofs", "max_iterations",
    "levels", "seed", "out", "eps", "eps_sweep", "indicator",
    "max_generation", "mesh", "export_mesh", "dump_indicators",
}


class ConfigError(Exception):
    """Invalid configuration (bad value, unknown key, missing input)."""


# -- configuration plumbing ---------------------------------------------


def _load_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value.strip()
    return cfg


class _Settings:
    """Merged view: CLI flag beats config file beats default."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.file = _load_config_file(ns.config) if getattr(ns, "config", None) else {}

    def get(self, key: str, default, cast=str):
        cli_val = getattr(self.ns, key, None)
        if cli_val is not None:
            return cli_val
        if key in self.file:
            try:
                return cast(self.file[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        return default


def _get_problem_checked(name: str):
    try:
        return get_problem(name)
    except KeyError as exc:
        raise ConfigError(str(exc.args[0])) from exc


def _levels(st: _Settings, default: int) -> int:
    levels = st.get("levels", default, int)
    if levels < 0:
        raise ConfigError(f"levels must be >= 0, got {levels}")
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


def _out_dir(st: _Settings) -> Path:
    """The output directory, created if missing."""
    out = Path(st.get("out", ".", str))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {str(out)!r}: {exc}") from exc
    return out


def _export_mesh_dest(value, out: Path) -> Path | None:
    """The file ``--export-mesh`` names, or None; a directory, or a path
    whose parent is not an existing directory, is a configuration error."""
    if not value:
        return None
    dest = out / "mesh.json" if value is True else Path(value)
    if dest.is_dir():
        raise ConfigError(f"cannot export mesh to {str(dest)!r}: it is a directory")
    if not dest.parent.is_dir():
        raise ConfigError(f"cannot export mesh to {str(dest)!r}: "
                          f"{str(dest.parent)!r} is not a directory")
    return dest


# -- run subcommand ------------------------------------------------------


def _print_convergence_table(trace) -> None:
    kind = trace.estimator
    print(f"problem={trace.problem} mode={trace.mode} estimator={kind} "
          f"theta={trace.theta:g}")
    print(f"{'k':>4} {'N':>8} {'leaves':>8} {'dofs':>8} "
          f"{kind:>12} {'total_err':>12} {'marked':>7}")
    for row in trace.rows:
        print(f"{row.k:>4} {row.N:>8} {row.leaves:>8} "
              f"{row.n_u + row.n_p:>8} {getattr(row, kind):>12.5e} "
              f"{row.total_err:>12.5e} {row.n_marked:>7}")
    ns = trace.column("N")
    for label, col in ((kind, trace.column(kind)),
                       ("total_err", trace.column("total_err"))):
        try:
            s, r2 = fit_rate(ns, col)
            print(f"rate[{label}] s={s:.4f} r2={r2:.4f}")
        except ValueError:
            print(f"rate[{label}] unavailable")


def _dump_indicators_csv(trace, path) -> None:
    ind = trace.final_indicators
    part = trace.final_partition
    from .estimators import marking_shares

    shares = marking_shares(trace.estimator, ind)
    lines = [f"# estimator={trace.estimator}", f"# problem={trace.problem}",
             "elem,area,vol,div_l2,div_edge,osc,share"]
    for i, elem in enumerate(part.leaves):
        vals = (part.areas[i], ind.vol[i], ind.div_l2[i], ind.div_edge[i],
                ind.osc[i], shares[i])
        lines.append(f"{int(elem)}," + ",".join(f"{v:.17g}" for v in vals))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_run(ns: argparse.Namespace) -> int:
    st = _Settings(ns)
    mode = st.get("mode", "adaptive")
    if mode not in ("adaptive", "uniform", "threshold"):
        raise ConfigError(f"mode must be adaptive, uniform, or threshold, "
                          f"got {mode!r}")
    if mode == "threshold":
        return _threshold_flow(st)

    problem_name = st.get("problem", "smooth-mms")
    prob = _get_problem_checked(problem_name)
    estimator = st.get("estimator", "eta1")
    seed = st.get("seed", 0, int)
    out = _out_dir(st)
    dest = _export_mesh_dest(st.get("export_mesh", False, _mesh_target_cast), out)

    try:
        if mode == "adaptive":
            cfg = AdaptiveConfig(
                problem=problem_name,
                estimator=estimator,
                theta=st.get("theta", 0.5, float),
                max_iterations=st.get("max_iterations", 200, int),
                max_dofs=st.get("max_dofs", 200_000, int),
            )
            trace = adaptive_run(cfg, problem=prob)
        else:
            trace = uniform_run(prob, levels=st.get("levels", 5, int),
                                estimator=estimator,
                                max_dofs=st.get("max_dofs", 1_000_000, int))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    extra = {"seed": str(seed), "version": __version__}
    write_trace_csv(trace, out / "trace.csv", extra_provenance=extra)
    report = monitor_report(trace)
    (out / "monitors.json").write_text(monitor_report_json(report) + "\n",
                                       encoding="utf-8")
    if dest is not None:
        save_mesh(trace.final_partition, dest)
    if st.get("dump_indicators", False, _bool_cast):
        _dump_indicators_csv(trace, out / "indicators.csv")
    _print_convergence_table(trace)
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


def _threshold_flow(st: _Settings) -> int:
    problem_name = st.get("problem", "smooth-mms")
    prob = _get_problem_checked(problem_name)
    spec = st.get("indicator", "osc")
    try:
        indicator = indicator_from_spec(spec, f=prob.f)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    max_gen = st.get("max_generation", 40, int)
    out = _out_dir(st)
    dest = _export_mesh_dest(st.get("export_mesh", False, _mesh_target_cast), out)
    seed = st.get("seed", 0, int)

    sweep_text = st.get("eps_sweep", None, str)
    if sweep_text:
        try:
            eps_values = [float(tok) for tok in sweep_text.split(",") if tok]
        except ValueError as exc:
            raise ConfigError(f"bad eps list {sweep_text!r}") from exc
    else:
        eps_values = [st.get("eps", None, float)]
        if eps_values[0] is None:
            raise ConfigError("threshold mode needs --eps or --eps-sweep")
    try:
        check_threshold_args(eps_values, max_gen)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    part = prob.make_partition()
    if sweep_text:
        reports = eps_sweep(part, indicator, eps_values, max_gen)
        write_sweep_csv(reports, out / "sweep.csv",
                        extra_provenance={"problem": problem_name,
                                          "seed": str(seed),
                                          "version": __version__})
        for rep in reports:
            print(json.dumps(_report_payload(rep), sort_keys=True))
        final = reports[-1]
    else:
        final = greedy_threshold(part, indicator, eps_values[0], max_gen)
        print(json.dumps(_report_payload(final), indent=2, sort_keys=True))
    if dest is not None:
        save_mesh(final.partition, dest)
    return EXIT_OK


def cmd_threshold(ns: argparse.Namespace) -> int:
    return _threshold_flow(_Settings(ns))


# -- mesh-info subcommand ------------------------------------------------


def cmd_mesh_info(ns: argparse.Namespace) -> int:
    st = _Settings(ns)
    levels = _levels(st, 0)
    mesh_path = st.get("mesh", None, str)
    if mesh_path:
        try:
            part = load_mesh(mesh_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load mesh {mesh_path!r}: {exc}") from exc
        source = mesh_path
    else:
        prob = _get_problem_checked(st.get("problem", "smooth-mms"))
        part = prob.make_partition()
        source = prob.name
    export = st.get("export_mesh", None, _mesh_target_cast)
    dest = _export_mesh_dest(export, _out_dir(st)) if export else None
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


def cmd_infsup(ns: argparse.Namespace) -> int:
    st = _Settings(ns)
    prob = _get_problem_checked(st.get("problem", "smooth-mms"))
    levels = _levels(st, 3)
    part = prob.make_partition()
    print(f"{'level':>5} {'leaves':>8} {'dofs':>8} {'beta':>12}")
    for level in range(levels + 1):
        dm = build_dofmap(part)
        if dm.n_dofs > 4000:
            print(f"{level:>5} {part.n_leaves:>8} {dm.n_dofs:>8} "
                  f"{'skipped':>12}  (dense diagnostic refuses > 4000 dofs)")
            break
        system = assemble(part, dm, prob.f, prob.g)
        beta = inf_sup_constant(system)
        print(f"{level:>5} {part.n_leaves:>8} {dm.n_dofs:>8} {beta:>12.6f}")
        if level < levels:
            part = refine(part, part.leaves)
    return EXIT_OK


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokesafem",
        description="Adaptive Taylor-Hood finite elements for the Stokes "
                    "problem: refinement studies, error estimation, and "
                    "stability diagnostics.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--problem", help="built-in problem id")
        p.add_argument("--seed", type=int, help="seed echoed into provenance")
        p.add_argument("--out", help="output directory (default: current)")

    p_run = sub.add_parser("run", help="adaptive/uniform refinement study")
    common(p_run)
    p_run.add_argument("--mode", choices=["adaptive", "uniform", "threshold"])
    p_run.add_argument("--theta", type=float, help="marking fraction in (0,1]")
    p_run.add_argument("--estimator", choices=list(ESTIMATOR_KINDS))
    p_run.add_argument("--max-dofs", dest="max_dofs", type=int)
    p_run.add_argument("--max-iterations", dest="max_iterations", type=int)
    p_run.add_argument("--levels", type=int, help="uniform refinement sweeps")
    p_run.add_argument("--eps", type=float, help="threshold tolerance "
                                                 "(mode=threshold)")
    p_run.add_argument("--indicator", help="threshold indicator "
                                           "(mode=threshold)")
    p_run.add_argument("--max-generation", dest="max_generation", type=int)
    p_run.add_argument("--eps-sweep", dest="eps_sweep",
                       help="comma-separated tolerances (mode=threshold)")
    p_run.add_argument("--export-mesh", dest="export_mesh", nargs="?",
                       const=True, metavar="PATH",
                       help="write the final mesh as JSON "
                            "(default <out>/mesh.json)")
    p_run.add_argument("--dump-indicators", dest="dump_indicators",
                       action="store_const", const=True,
                       help="write per-element indicator values as CSV")
    p_run.set_defaults(func=cmd_run)

    p_thr = sub.add_parser("threshold", help="greedy threshold refinement")
    common(p_thr)
    p_thr.add_argument("--eps", type=float, help="threshold tolerance")
    p_thr.add_argument("--eps-sweep", dest="eps_sweep",
                       help="comma-separated tolerances")
    p_thr.add_argument("--indicator",
                       help="osc or synthetic:area:<exponent> (default osc)")
    p_thr.add_argument("--max-generation", dest="max_generation", type=int)
    p_thr.add_argument("--export-mesh", dest="export_mesh", nargs="?",
                       const=True, metavar="PATH",
                       help="write the final mesh as JSON "
                            "(default <out>/mesh.json)")
    p_thr.set_defaults(func=cmd_threshold)

    p_info = sub.add_parser("mesh-info", help="mesh statistics")
    common(p_info)
    p_info.add_argument("--mesh", help="mesh JSON file (overrides --problem)")
    p_info.add_argument("--levels", type=int,
                        help="uniform refinements before reporting")
    p_info.add_argument("--export-mesh", dest="export_mesh", nargs="?",
                        const=True, metavar="PATH",
                        help="write the (refined) mesh as JSON "
                             "(default <out>/mesh.json)")
    p_info.set_defaults(func=cmd_mesh_info)

    p_inf = sub.add_parser("infsup", help="discrete stability constants")
    common(p_inf)
    p_inf.add_argument("--levels", type=int,
                       help="uniform refinement levels (default 3)")
    p_inf.set_defaults(func=cmd_infsup)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
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
