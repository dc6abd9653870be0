"""Deterministic random-stream management.

Every stochastic routine in this package draws from a counter-based Philox
generator whose 64-bit key is derived from a user seed plus a small role tag
(tree shape, field increments, cluster attempts, ...).  Distinct roles get
distinct keys, so adding draws to one routine never perturbs another, and a
given (seed, role) pair produces bit-identical draws across runs and across
any parallel schedule.

Replica fan-out uses the documented rule ``replica_seed = base_seed XOR
replica_index``; role tags are folded into the key afterwards with a
splitmix64 finalizer so that nearby seeds still yield well-separated keys.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Role tags.  Values are arbitrary but frozen: changing them changes every
# stream downstream of a seed.
TAG_TREE = 0x01
TAG_FIELD = 0x03
# 0x04 (the retired bridge-interior stream) must not be reused.
TAG_PAIR_X = 0x05
TAG_PAIR_Z = 0x06
TAG_COX = 0x07
TAG_CLUSTER = 0x08
TAG_SYNTH = 0x0A


def splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def stream_key(seed: int, *tags: int) -> int:
    """Fold role tags into a 64-bit Philox key for ``seed``."""
    key = seed & MASK64
    for tag in tags:
        key = splitmix64(key ^ (tag & MASK64))
    return key


def make_rng(seed: int, *tags: int) -> np.random.Generator:
    """Counter-based generator for the (seed, tags) stream."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *tags)))


def rekey(rng: np.random.Generator, seed: int,
          *tags: int) -> np.random.Generator:
    """Point a Philox generator at the start of the (seed, tags) stream.

    It then draws what make_rng(seed, *tags) draws, and costs a fraction
    of building a new generator.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([stream_key(seed, *tags), 0],
                                  dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def replica_seed(base_seed: int, replica_index: int) -> int:
    """Per-replica seed under the XOR splitting rule.

    Replicas of one run never collide (XOR with distinct indices is
    injective for a fixed base seed), and the schedule is reproducible
    from (base_seed, replica_count) alone.
    """
    if replica_index < 0:
        raise ValueError("replica_index must be nonnegative")
    return (base_seed ^ replica_index) & MASK64
