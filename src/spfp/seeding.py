"""Deterministic random-stream derivation.

Every random decision in the package draws from a counter-based Philox
generator keyed by (master seed, purpose, index...), so results are
reproducible bit-for-bit across platforms and independent of scheduling.

Reserved purpose codes:

* ``SPLIT_STREAM``    -- train/test row assignment
* ``REMOVAL_STREAM``  -- per-view feature removal; index = 0-based view number
* ``HOLDOUT_STREAM``  -- validation holdout used for ensemble weights;
  `partition` draws it with the train/test split and saves both in the
  parse cache, which `evaluate` reads on a hit instead of drawing them again
* ``BOOTSTRAP_STREAM``-- bootstrap resampling; no index: each bootstrap_ci
  call, and each run count of win_tie_loss (its metrics share the draw,
  each interval that of its own call), draws every replicate from
  this stream in blocks of ``evalstats.BOOTSTRAP_BLOCK``
"""

from __future__ import annotations

import numpy as np

SPLIT_STREAM = 0
REMOVAL_STREAM = 1
HOLDOUT_STREAM = 2
BOOTSTRAP_STREAM = 3


def substream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the (seed, *key) substream."""
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))
