"""Run configuration: JSON schema, validation, and round-trip serialization.

A config file is a single JSON object; unknown keys are rejected so typos
fail loudly. ``parse_config`` and ``serialize_config`` are inverses on valid
configurations, and the config hash embedded in exports is computed from the
canonical serialized form.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .aimd import ResourceParams
from .costs import CostFunction

MODES = ("deterministic", "stochastic", "both")

DEFAULT_SOLVER_TOL = 1e-8
DEFAULT_KKT_TOL = 1e-6


class ConfigError(ValueError):
    """Invalid configuration; ``fields`` lists the offending field paths."""

    def __init__(self, fields: list[str]):
        self.fields = fields
        super().__init__("invalid config: " + "; ".join(fields))


@dataclass(frozen=True)
class CostSpec:
    """Where devices' cost functions come from: sampled or an explicit list."""

    kind: str  # "sample" | "explicit"
    functions: tuple[CostFunction, ...] | None = None


@dataclass(frozen=True)
class Config:
    n: int
    m: int
    steps: int
    mode: str
    resources: tuple[ResourceParams, ...]
    seed: int
    cost_spec: CostSpec
    trace_stride: int | None = None  # None = dense early, strided later
    out_dir: str | None = None
    solver_tol: float = DEFAULT_SOLVER_TOL
    kkt_tol: float = DEFAULT_KKT_TOL

    def with_overrides(self, seed=None, trace_stride=None, out_dir=None) -> "Config":
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=int(seed))
        if trace_stride is not None:
            cfg = replace(cfg, trace_stride=int(trace_stride))
        if out_dir is not None:
            cfg = replace(cfg, out_dir=str(out_dir))
        problems = _validate(serialize_config(cfg))
        if problems:
            raise ConfigError(problems)
        return cfg


_TOP_KEYS = {
    "n", "m", "steps", "mode", "resources", "seed", "cost_spec",
    "trace_stride", "out_dir", "solver_tol", "kkt_tol",
}
_RESOURCE_KEYS = {"capacity", "alpha", "beta", "gamma_cap", "gamma_norm"}
_RESOURCE_REQUIRED = {"capacity", "alpha", "beta", "gamma_norm"}


def _validate(doc: dict) -> list[str]:
    """Collect validation problems as field paths with reasons."""
    problems: list[str] = []

    def need(key, kind, pred=None, why=""):
        if key not in doc:
            problems.append(f"{key}: missing required field")
            return None
        v = doc[key]
        if kind is float and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
        if not isinstance(v, kind) or isinstance(v, bool):
            problems.append(f"{key}: expected {kind.__name__}, got {type(v).__name__}")
            return None
        if pred is not None and not pred(v):
            problems.append(f"{key}: {why} (got {v})")
            return None
        return v

    unknown = set(doc) - _TOP_KEYS
    for key in sorted(unknown):
        problems.append(f"{key}: unknown field")

    n = need("n", int, lambda v: v >= 1, "must be >= 1")
    # config files describe the built-in three-resource cost family; other
    # resource counts are reachable through build_world with custom costs
    m = need("m", int, lambda v: v == 3, "must be 3 (built-in cost family)")
    need("steps", int, lambda v: v >= 1, "must be >= 1")
    need("mode", str, lambda v: v in MODES, f"must be one of {MODES}")
    need("seed", int, lambda v: 0 <= v < 2**64, "must fit in 64 bits")
    if "trace_stride" in doc and doc["trace_stride"] is not None:
        need("trace_stride", int, lambda v: v >= 1, "must be >= 1")
    if "out_dir" in doc and doc["out_dir"] is not None:
        need("out_dir", str)
    if "solver_tol" in doc:
        need("solver_tol", float, lambda v: 0 < v < 1, "must be in (0, 1)")
    if "kkt_tol" in doc:
        need("kkt_tol", float, lambda v: 0 < v < 1, "must be in (0, 1)")

    resources = doc.get("resources")
    if not isinstance(resources, list) or not resources:
        problems.append("resources: expected a non-empty list")
        resources = []
    if m is not None and resources and len(resources) != m:
        problems.append(f"resources: length {len(resources)} does not match m={m}")
    for idx, r in enumerate(resources):
        path = f"resources[{idx}]"
        if not isinstance(r, dict):
            problems.append(f"{path}: expected an object")
            continue
        for key in sorted(set(r) - _RESOURCE_KEYS):
            problems.append(f"{path}.{key}: unknown field")
        for key in sorted(_RESOURCE_REQUIRED - set(r)):
            problems.append(f"{path}.{key}: missing required field")
        merged = {"gamma_cap": 1.0, **{k: v for k, v in r.items() if k in _RESOURCE_KEYS}}
        if set(merged) == _RESOURCE_KEYS:
            try:
                ResourceParams(**{k: float(merged[k]) for k in _RESOURCE_KEYS})
            except (TypeError, ValueError) as e:
                problems.append(f"{path}: {e}")

    spec = doc.get("cost_spec")
    if not isinstance(spec, dict):
        problems.append("cost_spec: expected an object")
    else:
        kind = spec.get("kind")
        if kind == "sample":
            for key in sorted(set(spec) - {"kind"}):
                problems.append(f"cost_spec.{key}: unknown field")
        elif kind == "explicit":
            for key in sorted(set(spec) - {"kind", "functions"}):
                problems.append(f"cost_spec.{key}: unknown field")
            funcs = spec.get("functions")
            if not isinstance(funcs, list):
                problems.append("cost_spec.functions: expected a list")
            else:
                if n is not None and len(funcs) != n:
                    problems.append(
                        f"cost_spec.functions: length {len(funcs)} does not match n={n}"
                    )
                for i, fd in enumerate(funcs):
                    try:
                        CostFunction.from_dict(fd)
                    except (TypeError, ValueError) as e:
                        problems.append(f"cost_spec.functions[{i}]: {e}")
        else:
            problems.append("cost_spec.kind: must be 'sample' or 'explicit'")

    return problems


def config_from_dict(doc: dict) -> Config:
    problems = _validate(doc)
    if problems:
        raise ConfigError(problems)
    resources = tuple(
        ResourceParams(
            capacity=float(r["capacity"]),
            alpha=float(r["alpha"]),
            beta=float(r["beta"]),
            gamma_cap=float(r.get("gamma_cap", 1.0)),
            gamma_norm=float(r["gamma_norm"]),
        )
        for r in doc["resources"]
    )
    spec_doc = doc["cost_spec"]
    if spec_doc["kind"] == "sample":
        cost_spec = CostSpec(kind="sample")
    else:
        cost_spec = CostSpec(
            kind="explicit",
            functions=tuple(CostFunction.from_dict(fd) for fd in spec_doc["functions"]),
        )
    return Config(
        n=int(doc["n"]),
        m=int(doc["m"]),
        steps=int(doc["steps"]),
        mode=doc["mode"],
        resources=resources,
        seed=int(doc["seed"]),
        cost_spec=cost_spec,
        trace_stride=doc.get("trace_stride"),
        out_dir=doc.get("out_dir"),
        solver_tol=float(doc.get("solver_tol", DEFAULT_SOLVER_TOL)),
        kkt_tol=float(doc.get("kkt_tol", DEFAULT_KKT_TOL)),
    )


def parse_config(path: str | Path) -> Config:
    """Load and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError([f"<file>: cannot read {path}: {e}"]) from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"<file>: malformed JSON in {path}: {e}"]) from e
    if not isinstance(doc, dict):
        raise ConfigError(["<file>: top level must be a JSON object"])
    return config_from_dict(doc)


def serialize_config(cfg: Config) -> dict:
    """Plain-dict form; json.dumps of this round-trips through parse."""
    doc = {
        "n": cfg.n,
        "m": cfg.m,
        "steps": cfg.steps,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "resources": [
            {
                "capacity": r.capacity,
                "alpha": r.alpha,
                "beta": r.beta,
                "gamma_cap": r.gamma_cap,
                "gamma_norm": r.gamma_norm,
            }
            for r in cfg.resources
        ],
        "cost_spec": (
            {"kind": "sample"}
            if cfg.cost_spec.kind == "sample"
            else {
                "kind": "explicit",
                "functions": [f.to_dict() for f in cfg.cost_spec.functions],
            }
        ),
        "trace_stride": cfg.trace_stride,
        "out_dir": cfg.out_dir,
        "solver_tol": cfg.solver_tol,
        "kkt_tol": cfg.kkt_tol,
    }
    return doc


def config_hash(cfg: Config) -> str:
    """Stable hex digest of the canonical config serialization."""
    canon = json.dumps(serialize_config(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_config(cfg: Config, path: str | Path) -> None:
    Path(path).write_text(json.dumps(serialize_config(cfg), indent=2) + "\n")
