import weakref
from pathlib import Path

import pytest

from aimdalloc import compare_modes, engine, parse_config

REPO_ROOT = Path(__file__).resolve().parents[1]
BUNDLED_CONFIG = REPO_ROOT / "configs" / "tourist_center.json"


@pytest.fixture(scope="session")
def bundled_config():
    return parse_config(BUNDLED_CONFIG)


@pytest.fixture(scope="session")
def reference_comparison(bundled_config):
    """Full-length deterministic vs stochastic runs on the bundled scenario."""
    return compare_modes(bundled_config)


@pytest.fixture
def live_snapshots(monkeypatch):
    """Per ``engine.run`` call, whether each earlier run's ``x_snap`` was still alive as it started."""
    refs, alive, run = [], [], engine.run

    def tracked(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        trace = run(*args, **kwargs)
        refs.append(weakref.ref(trace.x_snap))
        return trace

    monkeypatch.setattr(engine, "run", tracked)
    return alive
