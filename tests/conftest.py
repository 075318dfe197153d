import numpy as np
import pytest

from answergen import autodiff as ad
from answergen.config import ModelConfig
from answergen.knowledge import Fact
from answergen.model import AnswerModel
from answergen.text import EncodeLimits, Vocabulary, encode_example

BASE_TOKENS = ["what", "is", "a", "the", "bridge", "cross", "water", "safe",
               "strong", "old", "helps", "you", "?", "."]


def force_cpus(monkeypatch, n):
    """Make the process look as if it may run on n CPUs, through the
    package's one CPU probe, `autodiff.spare_cpus`: Adam reads it when it is
    constructed, `in_parallel` at each fork and Tape.backward before its
    sweep."""
    monkeypatch.setattr(ad, "spare_cpus", lambda: n - 1)


def make_vocab(extra=()):
    return Vocabulary(sorted(set(BASE_TOKENS) | set(extra)), max_size=64)


def make_model(vocab, seed=0, emb=4, hidden=3, fact=5, n_relations=2):
    dims = ModelConfig(emb_dim=emb, hidden_dim=hidden, fact_dim=fact)
    return AnswerModel(vocab, n_relations, dims, np.random.default_rng(seed))


def zero_model(model):
    for tensor in model.parameters.values():
        tensor.data[:] = 0.0
    return model


def toy_example(vocab, answer="bridge is safe ."):
    return encode_example(
        "what is the bridge ?",
        "the old bridge is safe and helps you cross water .",
        answer,
        vocab,
        EncodeLimits(passage=50, answer=10),
    )


def toy_facts():
    return [
        Fact(("bridge",), 0, ("safe",), 0),
        Fact(("bridge",), 1, ("strong", "water"), 1),
    ]


@pytest.fixture
def vocab():
    return make_vocab()
