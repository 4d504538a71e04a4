"""Seed derivation: one 64-bit root seed, split per purpose.

Every random draw in the package flows from a single u64 root seed. Named
substreams are derived with a SplitMix64 walk: the label is folded into the
root with an FNV-1a hash, then pushed through two SplitMix64 rounds. The
derived u64 seeds a numpy PCG64 generator for the actual draws. Identical
(root, labels) always yields the identical stream; distinct labels give
decorrelated streams, so parameter init does not depend on registration
order and data generation does not depend on batch order.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One SplitMix64 step: returns the next u64 for ``state + golden gamma``."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def derive_seed(root: int, *labels: str) -> int:
    """Fold ``labels`` into ``root``, one SplitMix64 round per label plus a finisher."""
    s = root & _MASK
    for label in labels:
        s = splitmix64(s ^ _fnv1a64(label))
    return splitmix64(s)


def stream(root: int, *labels: str) -> np.random.Generator:
    """A PCG64 generator seeded by ``derive_seed(root, *labels)``."""
    return np.random.Generator(np.random.PCG64(derive_seed(root, *labels)))
