"""Substream addressing: pinned first draws, and the batch seeding of
``RngKey.generators`` against numpy's own ``SeedSequence`` path."""

import hashlib

import numpy as np
import pytest

from ptrisk import rng
from ptrisk.rng import RngKey, substream


@pytest.mark.parametrize(
    "gen, first",
    [
        (
            lambda: substream(42, "folds"),
            [13630580783669276324, 16830314194339891418, 11685094111189672166],
        ),
        (
            lambda: RngKey(42, ("model", "RF", "group", "F2", "fold", 3)).child("tree", 17).generator(),
            [15234008370332898792, 13442829174071782453, 13729402036077843628],
        ),
        (
            lambda: substream(42, "bootstrap", "F3", "GBT", "auc"),
            [11257839317555319696, 13466326196844673583, 13542842090463371384],
        ),
    ],
    ids=["folds", "forest_tree", "bootstrap"],
)
def test_substream_first_draws_are_pinned(gen, first):
    assert gen().bit_generator.random_raw(3).tolist() == first


def same_generators(batch, one_by_one):
    return len(batch) == len(one_by_one) and all(
        a.bit_generator.state == b.bit_generator.state for a, b in zip(batch, one_by_one)
    )


@pytest.mark.parametrize("seed", [0, 2**63 - 1])
@pytest.mark.parametrize(
    "path, name",
    [(("model", "RF", "group", "F2", "fold", 3), "tree"), ((7, "x", -1), 12)],
)
def test_batch_equals_one_substream_at_a_time(seed, path, name):
    key = RngKey(seed, path)
    count = 2500  # 10,000 keys over the four cases
    batch = key.generators(name, count)
    assert same_generators(batch, [key.child(name, t).generator() for t in range(count)])
    assert np.array_equal(batch[17].integers(0, 2**63, size=4), key.child(name, 17).generator().integers(0, 2**63, size=4))


def test_short_entropy_word_falls_back_to_numpy(monkeypatch):
    # numpy gives a 64-bit entropy word below 2**32 one uint32 word, not two,
    # so a key whose digest has one is seeded through SeedSequence
    real = rng._digest
    crafted = {
        3: bytes(8) + hashlib.sha256(b"a").digest()[:24],  # word 0 is zero
        5: hashlib.sha256(b"b").digest()[:12] + bytes(4) + hashlib.sha256(b"c").digest()[:16],
    }

    def digest(seed, path):
        return crafted.get(path[-1]) or real(seed, path)

    monkeypatch.setattr(rng, "_digest", digest)
    key = RngKey(42, ("model", "GBT"))
    batch = key.generators("round", 8)
    assert same_generators(batch, [key.child("round", t).generator() for t in range(8)])
    # without the fallback the batch words of these keys would be wrong
    entropy = np.frombuffer(b"".join(crafted.values()), dtype="<u4").reshape(2, 8).T.astype(np.uint32)
    for column, words in zip(rng._pcg64_words(entropy), crafted.values()):
        seeded = np.random.SeedSequence([int.from_bytes(words[i : i + 8], "little") for i in range(0, 32, 8)])
        assert not np.array_equal(column, seeded.generate_state(4, np.uint64))
