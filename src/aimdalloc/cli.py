"""Command-line experiment runner.

Subcommands:
  run      simulate one mode and export trace + metrics
  compare  run deterministic vs stochastic on the same instance
  solve    centralized optimum only
  sweep    repeat a run across a seed range and aggregate

Exit codes: 0 success, 2 configuration problem, 3 run/solver failure
(including a non-finite total, derivative spread or cost, and an oracle KKT
residual above the config's kkt_tol, both checked before anything is
exported), 1 unexpected error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import engine
from .config import Config, ConfigError, config_hash, parse_config
from .engine import SimulationError
from .metrics import collect_metrics
from .oracle import BracketError, solve_separable
from .report import compare_modes, export_comparison, export_trace

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_RUN = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aimdalloc",
        description="AIMD multi-resource allocation: simulate, compare, solve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--out", help="output directory (overrides config out_dir)")
        p.add_argument("--stride", type=int, help="trace snapshot stride (overrides config)")
        p.add_argument("--seed", type=int, help="run seed (overrides config)")

    p_run = sub.add_parser("run", help="single simulation run")
    add_common(p_run)
    p_run.add_argument(
        "--mode",
        choices=("deterministic", "stochastic"),
        help="run mode (required when the config says 'both')",
    )

    p_cmp = sub.add_parser("compare", help="deterministic vs stochastic comparison")
    add_common(p_cmp)

    p_solve = sub.add_parser("solve", help="centralized optimum only")
    add_common(p_solve)

    p_sweep = sub.add_parser("sweep", help="same run across a seed range")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--seeds", required=True, metavar="A..B", help="inclusive seed range, e.g. 1..5"
    )
    p_sweep.add_argument(
        "--mode",
        choices=("deterministic", "stochastic"),
        help="run mode (required when the config says 'both')",
    )
    return parser


def _load_config(args) -> Config:
    cfg = parse_config(args.config)
    return cfg.with_overrides(
        seed=getattr(args, "seed", None),
        trace_stride=getattr(args, "stride", None),
        out_dir=getattr(args, "out", None),
    )


def _out_dir(cfg: Config, command: str) -> Path:
    if cfg.out_dir:
        return Path(cfg.out_dir)
    return Path(f"aimdalloc-{command}-{config_hash(cfg)[:12]}")


def _certify(optimum, cfg: Config) -> None:
    if optimum.kkt_residual > cfg.kkt_tol:
        raise SimulationError(
            f"kkt residual {optimum.kkt_residual:.3e} above kkt_tol {cfg.kkt_tol:g}"
        )


def _single_mode(cfg: Config, flag_mode: str | None) -> str:
    mode = flag_mode or cfg.mode
    if mode == "both":
        raise ConfigError(["mode: 'both' needs the compare command or --mode"])
    return mode


def _run_and_export(cfg: Config, mode: str, out: Path):
    """Simulate one mode, certify the oracle's optimum, then collect metrics and export."""
    trace = engine.run(cfg, mode=mode)
    optimum = solve_separable(
        trace.functions, [p.capacity for p in cfg.resources], tol=cfg.solver_tol
    )
    _certify(optimum, cfg)
    report = collect_metrics(trace, optimum.x_star)
    return trace, report, export_trace(trace, report, out)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    mode = _single_mode(cfg, args.mode)
    trace, report, manifest = _run_and_export(cfg, mode, _out_dir(cfg, "run"))
    print(f"run ({mode}) finished: {trace.steps[-1]} steps, "
          f"event bits {list(report.summary.event_bits)}")
    print(f"final cost ratio {report.summary.final_cost_ratio:.6f}, "
          f"distance median {report.summary.distance_median:.3e}")
    print(f"wrote {', '.join(sorted(manifest.rows))} to {manifest.directory}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    if cfg.mode != "both":
        raise ConfigError(["mode: compare needs mode 'both'"])
    cr = compare_modes(cfg)
    _certify(cr.optimum, cfg)
    manifest = export_comparison(cr, _out_dir(cfg, "compare"))
    diff = cr.final_diff
    print(f"compare {cr.modes[0]} vs {cr.modes[1]}: "
          f"convergence steps {cr.convergence_steps[0]} vs {cr.convergence_steps[1]}")
    print(f"final average-allocation gap: median {np.median(diff):.3e}, max {diff.max():.3e}")
    print(f"wrote comparison to {manifest.directory}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    functions = engine.resolve_functions(cfg)
    optimum = solve_separable(
        functions, [p.capacity for p in cfg.resources], tol=cfg.solver_tol
    )
    _certify(optimum, cfg)
    out = _out_dir(cfg, "solve")
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "config_hash": config_hash(cfg),
        "x_star": [[float(v) for v in row] for row in optimum.x_star],
        "mu": [float(v) for v in optimum.mu],
        "kkt_residual": optimum.kkt_residual,
        "iterations": optimum.iterations,
        "converged": optimum.converged,
        "cost_functions": [f.to_dict() for f in functions],
    }
    (out / "optimum.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(f"solved: mu = {[round(float(v), 6) for v in optimum.mu]}, "
          f"kkt residual {optimum.kkt_residual:.3e}")
    print(f"wrote optimum.json to {out}")
    return EXIT_OK


def _parse_seed_range(text: str) -> range:
    try:
        a, b = text.split("..", 1)
        lo, hi = int(a), int(b)
    except ValueError:
        raise ConfigError([f"--seeds: expected A..B, got {text!r}"]) from None
    if hi < lo:
        raise ConfigError([f"--seeds: empty range {text!r}"])
    return range(lo, hi + 1)


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    mode = _single_mode(cfg, args.mode)
    seeds = _parse_seed_range(args.seeds)
    out = _out_dir(cfg, "sweep")
    per_seed = []
    for seed in seeds:
        run_cfg = cfg.with_overrides(seed=seed)
        _, report, _ = _run_and_export(run_cfg, mode, out / f"seed_{seed}")
        per_seed.append(
            {
                "seed": seed,
                "event_bits": list(report.summary.event_bits),
                "final_cost_ratio": report.summary.final_cost_ratio,
                "distance_median": report.summary.distance_median,
                "distance_max": report.summary.distance_max,
            }
        )
        print(f"seed {seed}: event bits {per_seed[-1]['event_bits']}, "
              f"cost ratio {per_seed[-1]['final_cost_ratio']:.6f}")
    bits = np.array([row["event_bits"] for row in per_seed], dtype=float)
    doc = {
        "mode": mode,
        "seeds": [row["seed"] for row in per_seed],
        "runs": per_seed,
        "event_bits_mean": [float(v) for v in bits.mean(axis=0)],
        "event_bits_min": [int(v) for v in bits.min(axis=0)],
        "event_bits_max": [int(v) for v in bits.max(axis=0)],
    }
    (out / "sweep.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(f"wrote sweep.json to {out}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, BracketError) as e:
        print(f"run error: {e}", file=sys.stderr)
        return EXIT_RUN
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # pragma: no cover - defensive
        print(f"unexpected error: {e}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
