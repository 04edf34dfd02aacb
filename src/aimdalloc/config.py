"""Run configuration: JSON schema, validation, and round-trip serialization.

A config file is a single JSON object whose top-level keys are stated once,
in file order, by the table ``_FIELDS``; unknown keys are rejected so typos
fail loudly. ``config_from_dict`` reads a document in one typed pass and
reports every problem at once. ``parse_config`` and ``serialize_config`` are
inverses on valid configurations, and the config hash embedded in exports is
computed from the canonical serialized form.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

from .aimd import RUN_MODES, ResourceParams
from .costs import CostFunction, Population, as_population

MODES = (*RUN_MODES, "both")

DEFAULT_SOLVER_TOL = 1e-8
DEFAULT_KKT_TOL = 1e-6


class ConfigError(ValueError):
    """Invalid configuration; ``fields`` lists the offending field paths."""

    def __init__(self, fields: list[str]):
        self.fields = fields
        super().__init__("invalid config: " + "; ".join(fields))


@dataclass(frozen=True)
class Config:
    n: int
    m: int
    steps: int
    mode: str
    resources: tuple[ResourceParams, ...]
    seed: int
    functions: Population | None = None  # None = sampled from the seed
    trace_stride: int | None = None  # None = dense early, strided later
    out_dir: str | None = None
    solver_tol: float = DEFAULT_SOLVER_TOL
    kkt_tol: float = DEFAULT_KKT_TOL

    def __post_init__(self):
        if self.functions is not None:
            object.__setattr__(self, "functions", as_population(self.functions))

    def with_overrides(self, seed=None, trace_stride=None, out_dir=None) -> "Config":
        """This config with the given fields replaced, checked like a config file."""
        doc = serialize_config(self)
        for key, value in (("seed", seed), ("trace_stride", trace_stride), ("out_dir", out_dir)):
            if value is not None:
                doc[key] = _FIELDS[key].kind(value)
        return config_from_dict(doc)


_REQUIRED = object()


class _Field(NamedTuple):
    """How one top-level scalar is read: JSON type, check, reason, default."""

    kind: type
    check: Callable | None = None
    why: str = ""
    default: object = _REQUIRED


_IN_UNIT = (lambda v: 0 < v < 1), "must be in (0, 1)"
#: every top-level key in file order; None marks the keys with their own reader
_FIELDS = {
    "n": _Field(int, lambda v: v >= 1, "must be >= 1"),
    # config files describe the built-in three-resource cost family; other
    # resource counts are reachable through build_world with custom costs
    "m": _Field(int, lambda v: v == 3, "must be 3 (built-in cost family)"),
    "steps": _Field(int, lambda v: v >= 1, "must be >= 1"),
    "mode": _Field(str, lambda v: v in MODES, f"must be one of {MODES}"),
    "seed": _Field(int, lambda v: 0 <= v < 2**64, "must fit in 64 bits"),
    "resources": None,
    "cost_spec": None,
    "trace_stride": _Field(int, lambda v: v >= 1, "must be >= 1", default=None),
    "out_dir": _Field(str, default=None),
    "solver_tol": _Field(float, *_IN_UNIT, default=DEFAULT_SOLVER_TOL),
    "kkt_tol": _Field(float, *_IN_UNIT, default=DEFAULT_KKT_TOL),
}
# a config must state gamma_norm although ResourceParams defaults it
_RESOURCE_DEFAULTS = {f.name: _REQUIRED for f in fields(ResourceParams)} | {"gamma_cap": 1.0}


def config_from_dict(doc: dict) -> Config:
    """Build a ``Config`` from a JSON document, or raise one ``ConfigError``.

    Every field is read once through a typed reader, and each object is built
    from what the reader returns; all problems are collected as field paths
    with reasons before anything is raised.
    """
    problems: list[str] = []

    def unknown(obj, allowed, prefix=""):
        for key in sorted(set(obj).difference(allowed)):
            problems.append(f"{prefix}{key}: unknown field")

    def read(obj, key, kind, pred=None, why="", default=_REQUIRED, prefix=""):
        """The value at ``key`` as a JSON ``kind``; None (and a problem) if unusable."""
        if key not in obj:
            if default is _REQUIRED:
                problems.append(f"{prefix}{key}: missing required field")
                return None
            return default
        v = obj[key]
        if v is None and default is None:
            return None
        if kind is float and isinstance(v, int) and not isinstance(v, bool):
            try:
                v = float(v)
            except OverflowError:
                problems.append(f"{prefix}{key}: integer too large for a float")
                return None
        if not isinstance(v, kind) or isinstance(v, bool):
            problems.append(f"{prefix}{key}: expected {kind.__name__}, got {type(v).__name__}")
            return None
        if pred is not None and not pred(v):
            problems.append(f"{prefix}{key}: {why} (got {v})")
            return None
        return v

    unknown(doc, _FIELDS)
    top = {key: read(doc, key, *field) for key, field in _FIELDS.items() if field}

    docs = doc.get("resources")
    if not isinstance(docs, list) or not docs:
        problems.append("resources: expected a non-empty list")
        docs = []
    if top["m"] is not None and docs and len(docs) != top["m"]:
        problems.append(f"resources: length {len(docs)} does not match m={top['m']}")
    resources = []
    for idx, r in enumerate(docs):
        path = f"resources[{idx}]"
        if not isinstance(r, dict):
            problems.append(f"{path}: expected an object")
            continue
        unknown(r, _RESOURCE_DEFAULTS, f"{path}.")
        values = {
            key: read(r, key, float, default=default, prefix=f"{path}.")
            for key, default in _RESOURCE_DEFAULTS.items()
        }
        if None not in values.values():
            try:
                resources.append(ResourceParams(**values))
            except ValueError as e:
                problems.append(f"{path}.{e}")

    functions = None
    spec = doc.get("cost_spec")
    if not isinstance(spec, dict):
        problems.append("cost_spec: expected an object")
    elif spec.get("kind") == "sample":
        unknown(spec, {"kind"}, "cost_spec.")
    elif spec.get("kind") == "explicit":
        unknown(spec, {"kind", "functions"}, "cost_spec.")
        entries = spec.get("functions")
        if not isinstance(entries, list):
            problems.append("cost_spec.functions: expected a list")
            entries = []
        elif top["n"] is not None and len(entries) != top["n"]:
            problems.append(f"cost_spec.functions: length {len(entries)} does not match n={top['n']}")
        functions = []
        for i, fd in enumerate(entries):
            if not isinstance(fd, dict):
                problems.append(f"cost_spec.functions[{i}]: expected an object")
                continue
            try:
                functions.append(CostFunction.from_dict(fd))
            except ValueError as e:
                problems.append(f"cost_spec.functions[{i}]: {e}")
    else:
        problems.append("cost_spec.kind: must be 'sample' or 'explicit'")

    if problems:
        raise ConfigError(problems)
    return Config(**top, resources=tuple(resources), functions=functions)


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
    doc = {key: getattr(cfg, key) if field else None for key, field in _FIELDS.items()}
    doc["resources"] = [asdict(r) for r in cfg.resources]
    doc["cost_spec"] = (
        {"kind": "sample"}
        if cfg.functions is None
        else {"kind": "explicit", "functions": cfg.functions.to_dicts()}
    )
    return doc


def config_hash(cfg: Config) -> str:
    """Stable hex digest of the canonical config serialization."""
    canon = json.dumps(serialize_config(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
