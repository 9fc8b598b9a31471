import itertools

import numpy as np
import pytest

from promptrestore.dataset import gen_prompt
from promptrestore.degradations import KINDS
from promptrestore.text import (PAD, PROMPT_LEN, PromptEncoder, Vocab, split_tokens,
                                tokenize)


def test_vocab_sorted_deterministic():
    a, b = Vocab(), Vocab()
    assert a.tokens == b.tokens == sorted(a.tokens)
    assert PAD in a.index and "<unk>" in a.index


def test_tokenize_example_prompt():
    v = Vocab()
    ids = tokenize("Remove rain, lowlight.", v)
    words = [v.tokens[i] for i in ids]
    assert words[:5] == ["remove", "rain", ",", "lowlight", "."]
    assert words[5:] == [PAD] * (PROMPT_LEN - 5)


def test_tokenize_empty_is_all_pad():
    v = Vocab()
    ids = tokenize("", v)
    assert ids.shape == (PROMPT_LEN,)
    assert (ids == v.pad_id).all()


def test_tokenize_deterministic():
    v = Vocab()
    a = tokenize("Remove haze.", v)
    b = tokenize("Remove haze.", v)
    np.testing.assert_array_equal(a, b)


def test_tokenize_unknown_word_maps_to_unk():
    v = Vocab()
    ids = tokenize("Remove gremlins.", v)
    assert ids[1] == v.unk_id


def test_tokenize_truncates_with_warning():
    v = Vocab()
    with pytest.warns(UserWarning, match="truncated"):
        ids = tokenize("remove " * 30, v)
    assert len(ids) == PROMPT_LEN
    assert (ids == v.id_of("remove")).all()


def test_split_keeps_punctuation_tokens():
    assert split_tokens("There are rain, snow in the image.") == \
        ["there", "are", "rain", ",", "snow", "in", "the", "image", "."]


def test_every_dataset_prompt_tokenizes_in_vocab_and_length():
    # the vocab's template words must cover what dataset.gen_prompt writes:
    # every (present, removed) pair of 1-3 kinds, in both prompt styles
    v = Vocab()
    prompts = [gen_prompt(present, removed, style)
               for k in range(1, 4) for present in itertools.combinations(KINDS, k)
               for r in range(1, k + 1) for removed in itertools.combinations(present, r)
               for style in ("single", "two")]
    assert len(prompts) == 210
    for prompt in prompts:
        assert len(split_tokens(prompt)) <= PROMPT_LEN, prompt
        assert v.unk_id not in tokenize(prompt, v), prompt


def make_encoder(c=48, seed=0):
    return Vocab(), PromptEncoder(c, 128, 2, np.random.default_rng(seed))


def test_encoder_output_shapes_match_channel_ladder():
    v, enc = make_encoder(c=48)
    ids = tokenize("Remove blur.", v)
    wide, mid = enc(ids)
    assert wide.shape == (PROMPT_LEN, 384)
    assert mid.shape == (PROMPT_LEN, 192)


def test_encoder_deterministic_for_all_pad():
    v, enc = make_encoder(c=16)
    ids = tokenize("", v)
    a = enc(ids)[0].data
    b = enc(ids)[0].data
    np.testing.assert_array_equal(a, b)


def test_encoder_distinguishes_prompts():
    # one-token difference must change the encoding even before training
    v, enc = make_encoder(c=16)
    a = enc(tokenize("Remove rain.", v))[0].data
    b = enc(tokenize("Remove snow.", v))[0].data
    assert np.abs(a - b).max() > 1e-6


def test_encoder_rejects_bad_length():
    v, enc = make_encoder(c=16)
    with pytest.raises(ValueError):
        enc(np.zeros(7, dtype=np.int64))


def test_encoder_rejects_out_of_range_id():
    v, enc = make_encoder(c=16)
    ids = np.full(PROMPT_LEN, len(v), dtype=np.int64)
    with pytest.raises(IndexError):
        enc(ids)
