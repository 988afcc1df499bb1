"""Substream addressing: pinned first draws."""

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


def test_digest_word_with_zero_high_half_keeps_two_entropy_words(monkeypatch):
    # every digest gives SeedSequence all eight of its uint32 words, also a
    # zero one; numpy would drop it from a 64-bit int entropy word below 2**32
    real = rng._digest

    def digest(seed, path):
        words = real(seed, path)
        return words[:4] + bytes(4) + words[8:]

    monkeypatch.setattr(rng, "_digest", digest)
    gen = RngKey(42, ("model", "GBT")).child("round", 3).generator()
    assert gen.bit_generator.random_raw(3).tolist() == [10666560889849064082, 14892500520434708945, 8640170938023324585]
