"""Deterministic, addressable random substreams.

Every stochastic consumer in the pipeline (a tree of a forest, a boosting
round, a bootstrap resampler, the fold shuffler) draws from its own
substream addressed by a path under the experiment seed, e.g.
``(seed, "model", "RF", "group", "F2", "fold", 3, "tree", 17)``.  The
substream key is SHA-256 of the rendered path; its eight little-endian
uint32 words are the entropy of numpy's public ``SeedSequence``, which
seeds a PCG64.  So results are independent of execution order, thread
count, and platform.  This module is the only place that builds numpy
generators.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


def _digest(seed: int, path: tuple) -> bytes:
    text = "\x1f".join([str(seed)] + [str(p) for p in path])
    return hashlib.sha256(text.encode("utf-8")).digest()


def substream(seed: int, *path) -> np.random.Generator:
    """PCG64 generator for the substream addressed by (seed, *path)."""
    entropy = np.frombuffer(_digest(seed, tuple(path)), dtype="<u4")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class RngKey:
    """Handle to a substream address; children extend the path."""

    seed: int
    path: tuple = field(default_factory=tuple)

    def child(self, *parts) -> "RngKey":
        return RngKey(self.seed, self.path + tuple(parts))

    def generator(self) -> np.random.Generator:
        return substream(self.seed, *self.path)
