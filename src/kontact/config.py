"""Run configuration: the seed, sample count and tolerances the CLI sets."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

SEED_ENV_VAR = "KONTACT_SEED"


@dataclass(frozen=True)
class RunConfig:
    """The sampling seed, sample count and zero-test tolerances a run sets.

    The same config object is threaded through every verification so a run is
    reproducible from (inputs, seed) alone.  The fixed numeric policy lives
    with the code that applies it: linalg.RANK_THRESHOLD,
    zerotest.INCONCLUSIVE_MARGIN and zerotest.MAX_SAMPLE_RETRIES.
    """

    seed: int = 42
    n_sample_points: int = 64
    atol: float = 1e-10
    rtol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.atol < math.inf and 0 < self.rtol < math.inf):  # NaN fails too
            raise ValueError("tolerances must be positive and finite")
        if self.n_sample_points < 1:
            raise ValueError("need at least one sample point")


def default_seed() -> int:
    """DEFAULT_CONFIG's seed unless the KONTACT_SEED environment variable
    overrides it."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_CONFIG.seed
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


DEFAULT_CONFIG = RunConfig()
