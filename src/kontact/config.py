"""Run configuration: seeds, sample counts, and tolerances used across the engine."""

from __future__ import annotations

import os
from dataclasses import dataclass

SEED_ENV_VAR = "KONTACT_SEED"


@dataclass(frozen=True)
class RunConfig:
    """Tolerances and sampling parameters for zero tests and rank decisions.

    The same config object is threaded through every verification so a run is
    reproducible from (inputs, seed) alone.
    """

    seed: int = 42
    n_sample_points: int = 64
    atol: float = 1e-10
    rtol: float = 1e-9
    rank_threshold: float = 1e-8
    # |value| everywhere below this but not below tolerance: refuse to call it.
    inconclusive_margin: float = 1e-6
    max_sample_retries: int = 400

    def __post_init__(self):
        if self.atol <= 0 or self.rtol <= 0 or self.rank_threshold <= 0:
            raise ValueError("tolerances must be positive")
        if self.n_sample_points < 1:
            raise ValueError("need at least one sample point")


def default_seed() -> int:
    """Seed 42 unless the KONTACT_SEED environment variable overrides it."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


DEFAULT_CONFIG = RunConfig()
