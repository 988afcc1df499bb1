"""Deterministic, addressable random substreams.

Every stochastic consumer in the pipeline (a tree of a forest, a boosting
round, a bootstrap resampler, the fold shuffler) draws from its own
substream addressed by a path under the experiment seed, e.g.
``(seed, "model", "RF", "group", "F2", "fold", 3, "tree", 17)``.  The
substream key is SHA-256 of the rendered path, fed to numpy's PCG64, so
results are independent of execution order, thread count, and platform.
This module is the only place that builds numpy generators.

``RngKey.generators`` seeds the substreams of a key's children
``(name, 0..count-1)`` in one pass, for the 200 trees of a forest or
rounds of a boosted model.  A single substream goes through numpy's
``SeedSequence``, whose mixing (O'Neill's ``seed_seq`` design) is a fixed
sequence of wrapping uint32 operations: each entropy word is XORed with a
running hash constant and multiplied by its next value, and pool words
are mixed as ``L*x - R*y``, each result folded with ``^= >> 16``.  The
constants do not depend on the entropy, so the batch runs the same
operations on an (8, count) array of digest words, one column per child,
and gives each PCG64 the four uint64 words ``generate_state(4, uint64)``
would give: the same generators, bit for bit.

The batch is exact only when numpy's entropy is the digest's eight
little-endian uint32 words.  numpy splits each 64-bit entropy word into
uint32 words down to its highest nonzero one, so a word below 2**32
gives one word, not two; a child whose digest has such a word (about
2**-30 per child) is seeded by ``substream`` instead.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _digest(seed: int, path: tuple) -> bytes:
    text = "\x1f".join([str(seed)] + [str(p) for p in path])
    return hashlib.sha256(text.encode("utf-8")).digest()


def _seed_words(seed: int, path: tuple) -> list[int]:
    digest = _digest(seed, path)
    return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]


def substream(seed: int, *path) -> np.random.Generator:
    """PCG64 generator for the substream addressed by (seed, *path)."""
    words = _seed_words(seed, tuple(path))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _hash_constants(init: int, mult: int):
    """numpy's running hash constant, step after step: the value a step
    XORs its input with, and the next value, which it multiplies by."""
    while True:
        nxt = (init * mult) & _MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hash(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    x = (value ^ xor) * mult
    x ^= x >> _XSHIFT
    return x


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    z ^= z >> _XSHIFT
    return z


def _pcg64_words(entropy: np.ndarray) -> np.ndarray:
    """For each column e of ``entropy`` (uint32, at least four words by K
    columns), the four words ``SeedSequence(e).generate_state(4,
    np.uint64)`` gives, as a C-contiguous (K, 4) uint64 array."""
    a = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(entropy[i], a) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], a))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, a))
    b = _hash_constants(_INIT_B, _MULT_B)
    state = np.array([_hash(pool[i % _POOL_SIZE], b) for i in range(8)], dtype="<u4")
    # word j is state[2j] | state[2j + 1] << 32, as numpy's '<u4' -> '<u8' view
    return state.T.copy().view("<u8").astype(np.uint64)


class _Words:
    """Seed of one PCG64: the four uint64 words its ``SeedSequence`` would
    generate.  Registered as a numpy ``ISeedSequence`` on first use (see
    ``_register_words``), so that importing the package does not import
    ``numpy.random``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@functools.cache
def _register_words() -> None:
    np.random.bit_generator.ISeedSequence.register(_Words)


@dataclass(frozen=True)
class RngKey:
    """Handle to a substream address; children extend the path."""

    seed: int
    path: tuple = field(default_factory=tuple)

    def child(self, *parts) -> "RngKey":
        return RngKey(self.seed, self.path + tuple(parts))

    def generator(self) -> np.random.Generator:
        return substream(self.seed, *self.path)

    def generators(self, name, count: int) -> list[np.random.Generator]:
        """``[self.child(name, t).generator() for t in range(count)]``, bit
        for bit, seeded in one pass (see the module docstring)."""
        digests = b"".join(_digest(self.seed, self.path + (name, t)) for t in range(count))
        entropy = np.frombuffer(digests, dtype="<u4").reshape(count, 8).T.astype(np.uint32, order="C")
        words = _pcg64_words(entropy)
        # a 64-bit word below 2**32 has a zero high half
        short = (entropy[1::2] == 0).any(axis=0).tolist()
        _register_words()
        return [
            self.child(name, t).generator() if short[t] else np.random.Generator(np.random.PCG64(_Words(words[t])))
            for t in range(count)
        ]
