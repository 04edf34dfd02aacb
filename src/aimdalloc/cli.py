"""Command-line experiment runner.

Subcommands:
  run      simulate one mode and export trace + metrics
  compare  run deterministic vs stochastic on the same instance
  solve    centralized optimum only
  sweep    repeat a run across a seed range and aggregate

Exit codes: 0 success, 2 configuration problem (including the devices' arrays
and their trace over engine.check_footprint's budget, refused before sampling, and
an output directory blocked by a file, refused before simulating), 3
run/solver failure (including a non-finite total, derivative spread or cost,
and an oracle KKT residual above the config's kkt_tol, both checked before
anything is exported, per mode for compare, and running out of memory), 1
unexpected error. compare takes each mode through its export before the next
starts: the KKT residual is checked after the first run, before anything is
exported, and a failure in the second mode leaves the first mode's directory
complete and writes no comparison.json.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import engine
from .aimd import RUN_MODES
from .config import Config, ConfigError, config_hash, parse_config
from .engine import SimulationError
from .metrics import _median, collect_metrics
from .oracle import BracketError
from .report import certified_optimum, compare_modes, export_trace, write_json

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_RUN = 3

#: ``add_argument`` arguments of every flag; ``_COMMANDS`` says which subcommands take it
_FLAGS = {
    "config": dict(help="path to a JSON config file"),
    "--out": dict(help="output directory (overrides config out_dir)"),
    "--stride": dict(type=int, help="trace snapshot stride (overrides config)"),
    "--seed": dict(type=int, help="run seed (overrides config)"),
    "--seeds": dict(required=True, metavar="A..B", help="inclusive seed range, e.g. 1..5"),
    "--mode": dict(choices=RUN_MODES, help="run mode (required when the config says 'both')"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aimdalloc",
        description="AIMD multi-resource allocation: simulate, compare, solve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        # exact flags only: otherwise sweep would read --seed as --seeds
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _load_config(args) -> Config:
    cfg = parse_config(args.config)
    return cfg.with_overrides(
        seed=getattr(args, "seed", None),
        trace_stride=getattr(args, "stride", None),
        out_dir=getattr(args, "out", None),
    )


def _out_dir(cfg: Config, command: str, subdirs=()) -> Path:
    """The output directory, not yet made; ConfigError if a file blocks it or an ``out / sub``."""
    out = Path(cfg.out_dir or f"aimdalloc-{command}-{config_hash(cfg)[:12]}")
    for path in itertools.chain([out], map(out.joinpath, subdirs)):
        nearest = next((p for p in (path, *path.parents) if p.exists()), None)
        if nearest is not None and not nearest.is_dir():
            raise ConfigError([f"out_dir: {nearest} is not a directory"])
    return out


def _single_mode(cfg: Config, flag_mode: str | None) -> str:
    mode = flag_mode or cfg.mode
    if mode == "both":
        raise ConfigError(["mode: 'both' needs the compare command or --mode"])
    return mode


def _run_and_export(cfg: Config, mode: str, out: Path):
    """Simulate one mode, certify the oracle's optimum, then collect metrics and export."""
    trace = engine.run(cfg, mode=mode)
    optimum = certified_optimum(cfg, trace.functions)
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
    cr = compare_modes(cfg, _out_dir(cfg, "compare", RUN_MODES))
    diff = cr.final_diff
    print(f"compare {cr.modes[0]} vs {cr.modes[1]}: "
          f"convergence steps {cr.convergence_steps[0]} vs {cr.convergence_steps[1]}")
    print(f"final average-allocation gap: median {_median(diff):.3e}, max {diff.max():.3e}")
    print(f"wrote comparison to {cr.manifest.directory}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg, "solve")
    engine.check_footprint(cfg.n)
    functions = engine.resolve_functions(cfg)
    optimum = certified_optimum(cfg, functions)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "config_hash": config_hash(cfg),
        "x_star": optimum.x_star,
        "mu": [float(v) for v in optimum.mu],
        "kkt_residual": optimum.kkt_residual,
        "iterations": optimum.iterations,
        "converged": optimum.converged,
        "cost_functions": functions,
    }
    write_json(out / "optimum.json", doc)
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
    out = _out_dir(cfg, "sweep", (f"seed_{seed}" for seed in seeds))
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
    write_json(out / "sweep.json", doc)
    print(f"wrote sweep.json to {out}")
    return EXIT_OK


#: handler, help and flags of every subcommand, as in the README synopsis
_COMMANDS = {
    "run": (_cmd_run, "single simulation run", "config --out --stride --seed --mode"),
    "compare": (_cmd_compare, "deterministic vs stochastic comparison", "config --out --stride --seed"),
    "solve": (_cmd_solve, "centralized optimum only", "config --out --seed"),
    "sweep": (_cmd_sweep, "same run across a seed range", "config --out --stride --seeds --mode"),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (SimulationError, BracketError) as e:
        print(f"run error: {e}", file=sys.stderr)
        return EXIT_RUN
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:  # numpy's says what it could not allocate; a bare one says nothing
        print(f"run error: out of memory{f': {e}' if str(e) else ''}", file=sys.stderr)
        return EXIT_RUN
    except Exception as e:  # pragma: no cover - defensive
        print(f"unexpected error: {e}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
