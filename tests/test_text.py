import itertools

import numpy as np
import pytest

from promptrestore.dataset import gen_prompt
from promptrestore.degradations import KINDS
from promptrestore.text import (PAD, PROMPT_LEN, TOKENS, UNK, VOCAB_SHA256, PromptEncoder,
                                split_tokens, tokenize)

PAD_ID, UNK_ID = TOKENS.index(PAD), TOKENS.index(UNK)


def test_vocab_sorted_deterministic():
    assert TOKENS == tuple(sorted(set(TOKENS)))
    assert PAD in TOKENS and "<unk>" in TOKENS


def test_vocab_hash_is_pinned():
    # checkpoints store this digest and refuse to load under another one, so
    # any change to the token table must be a deliberate format change
    assert VOCAB_SHA256.hex() == \
        "7e5ed4caa761f3deca39e4f3b79edc50c29a0d1b8830641dcd29df1cea9e5aba"


def test_tokenize_example_prompt():
    ids = tokenize("Remove rain, lowlight.")
    words = [TOKENS[i] for i in ids]
    assert words[:5] == ["remove", "rain", ",", "lowlight", "."]
    assert words[5:] == [PAD] * (PROMPT_LEN - 5)


def test_tokenize_empty_is_all_pad():
    ids = tokenize("")
    assert ids.shape == (PROMPT_LEN,)
    assert (ids == PAD_ID).all()


def test_tokenize_deterministic():
    a = tokenize("Remove haze.")
    b = tokenize("Remove haze.")
    np.testing.assert_array_equal(a, b)


def test_tokenize_unknown_word_maps_to_unk():
    ids = tokenize("Remove gremlins.")
    assert ids[1] == UNK_ID


@pytest.mark.parametrize("prompt, name", [(b"Remove rain.", "bytes"), (None, "NoneType"),
                                          (["remove", "rain"], "list")])
def test_tokenize_rejects_a_prompt_that_is_not_a_str(prompt, name):
    with pytest.raises(TypeError, match=f"^prompt must be a str, got {name}$"):
        tokenize(prompt)


def test_tokenize_truncates_with_warning():
    with pytest.warns(UserWarning, match="truncated"):
        ids = tokenize("remove " * 30)
    assert len(ids) == PROMPT_LEN
    assert (ids == TOKENS.index("remove")).all()


def test_split_keeps_punctuation_tokens():
    assert split_tokens("There are rain, snow in the image.") == \
        ["there", "are", "rain", ",", "snow", "in", "the", "image", "."]


def test_every_dataset_prompt_tokenizes_in_vocab_and_length():
    # the vocab's template words must cover what dataset.gen_prompt writes:
    # every (present, removed) pair of 1-3 kinds, in both prompt styles
    prompts = [gen_prompt(present, removed, style)
               for k in range(1, 4) for present in itertools.combinations(KINDS, k)
               for r in range(1, k + 1) for removed in itertools.combinations(present, r)
               for style in ("single", "two")]
    assert len(prompts) == 210
    for prompt in prompts:
        assert len(split_tokens(prompt)) <= PROMPT_LEN, prompt
        assert UNK_ID not in tokenize(prompt), prompt


def make_encoder(c=48, seed=0):
    return PromptEncoder(c, 128, 2, np.random.default_rng(seed))


def test_encoder_output_shapes_match_channel_ladder():
    enc = make_encoder(c=48)
    ids = tokenize("Remove blur.")
    wide, mid = enc(ids)
    assert wide.shape == (PROMPT_LEN, 384)
    assert mid.shape == (PROMPT_LEN, 192)


def test_encoder_deterministic_for_all_pad():
    enc = make_encoder(c=16)
    ids = tokenize("")
    a = enc(ids)[0].data
    b = enc(ids)[0].data
    np.testing.assert_array_equal(a, b)


def test_encoder_distinguishes_prompts():
    # one-token difference must change the encoding even before training
    enc = make_encoder(c=16)
    a = enc(tokenize("Remove rain."))[0].data
    b = enc(tokenize("Remove snow."))[0].data
    assert np.abs(a - b).max() > 1e-6


def test_encoder_rejects_bad_length():
    enc = make_encoder(c=16)
    with pytest.raises(ValueError):
        enc(np.zeros(7, dtype=np.int64))


def test_encoder_rejects_out_of_range_id():
    enc = make_encoder(c=16)
    ids = np.full(PROMPT_LEN, len(TOKENS), dtype=np.int64)
    with pytest.raises(IndexError):
        enc(ids)


def test_encoder_rejects_ids_that_are_not_integers():
    # 2.9 would otherwise truncate to id 2 and encode as that prompt
    enc = make_encoder(c=16)
    with pytest.raises(TypeError, match="^embedding: ids must be integers, got dtype float64$"):
        enc(np.full(PROMPT_LEN, 2.9))
