"""Pins for beam search: golden decodes recorded from the earlier
per-hypothesis search (which also re-ran a greedy decode after every beam
search), the batched decoder step against single-row steps, and the shape of
one search (its example encoded as a batch of one, one model step per
search step, each head at most once)."""
from dataclasses import fields

import numpy as np
import pytest

from answergen import autodiff as ad
from answergen import generate as decoding
from answergen import model as model_module
from answergen.model import AnswerModel, StepState
from answergen.text import EOS

from conftest import make_model, make_vocab
from test_generate import make_kb

QUESTION = "what is the bridge ?"
PASSAGE = "the old bridge is safe and helps you cross water ."
TRIPLES = [("bridge", "IsA", "strong water"), ("bridge", "UsedFor", "cross old water"),
           ("water", "IsA", "safe")]


def decode(seed, beam, kind, max_len=8):
    """kind "none": no KB; "kb": three facts with one- to three-token objects;
    "forced": the same KB with the knowledge source forced; "eos": the
    vocabulary source forced, with "bridge" and <eos> its likeliest words."""
    model = make_model(make_vocab(), seed=seed)
    kb = None if kind == "none" else make_kb(TRIPLES)
    if kind == "forced":
        model.selector.b_source.data[:] = [0.0, 0.0, 0.0, 10.0]
    if kind == "eos":
        model.selector.b_source.data[:] = [0.0, 0.0, 10.0, 0.0]
        model.selector.b_vocab.data[[model.vocab.encode("bridge"), EOS]] = 3.0
    return decoding.generate(QUESTION, PASSAGE, model, kb=kb, beam_size=beam, max_len=max_len)


# (seed, beam, kind) -> (score, [(token, chosen source, fact id, continuation)])
GOLDEN = {
    (0, 1, 'none'): (-27.78575175662974, [
        ('and', 2, None, False), ('and', 2, None, False), ('and', 2, None, False),
        ('and', 2, None, False), ('and', 2, None, False), ('and', 2, None, False),
        ('and', 2, None, False), ('and', 2, None, False),
    ]),
    (0, 1, 'kb'): (-29.940251632277455, [
        ('and', 2, None, False), ('and', 2, None, False), ('and', 2, None, False),
        ('and', 2, None, False), ('and', 2, None, False), ('and', 2, None, False),
        ('and', 2, None, False), ('and', 2, None, False),
    ]),
    (0, 4, 'none'): (-27.78575175662974, [
        ('and', 2, None, False), ('and', 2, None, False), ('and', 2, None, False),
        ('and', 2, None, False), ('and', 2, None, False), ('and', 2, None, False),
        ('and', 2, None, False), ('and', 2, None, False),
    ]),
    (0, 4, 'kb'): (-29.940251632277455, [
        ('and', 2, None, False), ('and', 2, None, False), ('and', 2, None, False),
        ('and', 2, None, False), ('and', 2, None, False), ('and', 2, None, False),
        ('and', 2, None, False), ('and', 2, None, False),
    ]),
    (1, 1, 'none'): (-22.22899676214937, [
        ('.', 2, None, False), ('the', 1, None, False), ('the', 1, None, False),
        ('the', 1, None, False), ('the', 1, None, False), ('the', 1, None, False),
        ('the', 1, None, False), ('the', 1, None, False),
    ]),
    (1, 1, 'kb'): (-24.484184651902716, [
        ('.', 2, None, False), ('the', 1, None, False), ('the', 1, None, False),
        ('the', 1, None, False), ('the', 1, None, False), ('the', 1, None, False),
        ('the', 1, None, False), ('the', 1, None, False),
    ]),
    (1, 4, 'none'): (-22.210811531713794, [
        ('safe', 2, None, False), ('bridge', 1, None, False), ('bridge', 1, None, False),
        ('bridge', 1, None, False), ('bridge', 1, None, False), ('bridge', 1, None, False),
        ('bridge', 1, None, False), ('the', 1, None, False),
    ]),
    (1, 4, 'kb'): (-24.436370933222552, [
        ('.', 2, None, False), ('bridge', 1, None, False), ('bridge', 1, None, False),
        ('bridge', 1, None, False), ('bridge', 1, None, False), ('bridge', 1, None, False),
        ('bridge', 1, None, False), ('the', 1, None, False),
    ]),
    (2, 1, 'none'): (-30.930495740884023, [
        ('the', 3, None, False), ('the', 3, None, False), ('the', 3, None, False),
        ('the', 3, None, False), ('the', 3, None, False), ('the', 3, None, False),
        ('the', 3, None, False), ('the', 3, None, False),
    ]),
    (2, 1, 'kb'): (-33.23062864558616, [
        ('the', 3, None, False), ('the', 3, None, False), ('the', 3, None, False),
        ('the', 3, None, False), ('the', 3, None, False), ('the', 3, None, False),
        ('the', 3, None, False), ('the', 3, None, False),
    ]),
    (2, 4, 'none'): (-30.930495740884023, [
        ('the', 3, None, False), ('the', 3, None, False), ('the', 3, None, False),
        ('the', 3, None, False), ('the', 3, None, False), ('the', 3, None, False),
        ('the', 3, None, False), ('the', 3, None, False),
    ]),
    (2, 4, 'kb'): (-33.23062864558616, [
        ('the', 3, None, False), ('the', 3, None, False), ('the', 3, None, False),
        ('the', 3, None, False), ('the', 3, None, False), ('the', 3, None, False),
        ('the', 3, None, False), ('the', 3, None, False),
    ]),
    (3, 1, 'none'): (-21.10957272304118, [
        ('bridge', 1, None, False), ('bridge', 1, None, False), ('bridge', 1, None, False),
        ('bridge', 1, None, False), ('bridge', 1, None, False), ('bridge', 1, None, False),
        ('bridge', 1, None, False), ('bridge', 1, None, False),
    ]),
    (3, 1, 'kb'): (-23.433512676617923, [
        ('bridge', 1, None, False), ('bridge', 1, None, False), ('bridge', 1, None, False),
        ('bridge', 1, None, False), ('bridge', 1, None, False), ('bridge', 1, None, False),
        ('bridge', 1, None, False), ('bridge', 1, None, False),
    ]),
    (3, 4, 'none'): (-20.956724873224502, [
        ('is', 1, None, False), ('is', 1, None, False), ('is', 1, None, False),
        ('is', 1, None, False), ('is', 1, None, False), ('is', 1, None, False),
        ('is', 1, None, False), ('bridge', 1, None, False),
    ]),
    (3, 4, 'kb'): (-23.310173589658397, [
        ('is', 1, None, False), ('is', 1, None, False), ('is', 1, None, False),
        ('is', 1, None, False), ('is', 1, None, False), ('is', 1, None, False),
        ('is', 1, None, False), ('bridge', 1, None, False),
    ]),
    (4, 1, 'forced'): (-8.78922244512867, [
        ('safe', 4, 2, False), ('safe', 4, 2, False), ('safe', 4, 2, False),
        ('safe', 4, 2, False), ('safe', 4, 2, False), ('safe', 4, 2, False),
        ('safe', 4, 2, False), ('safe', 4, 2, False),
    ]),
    (4, 4, 'forced'): (-3.2964533680283252, [
        ('cross', 4, 1, False), ('old', 4, 1, True), ('water', 4, 1, True),
        ('strong', 4, 0, False), ('water', 4, 0, True), ('cross', 4, 1, False),
        ('old', 4, 1, True), ('water', 4, 1, True),
    ]),
    (5, 1, 'forced'): (-4.3949058392357765, [
        ('strong', 4, 0, False), ('water', 4, 0, True), ('strong', 4, 0, False),
        ('water', 4, 0, True), ('strong', 4, 0, False), ('water', 4, 0, True),
        ('strong', 4, 0, False), ('water', 4, 0, True),
    ]),
    (5, 4, 'forced'): (-3.2961882906807176, [
        ('cross', 4, 1, False), ('old', 4, 1, True), ('water', 4, 1, True),
        ('cross', 4, 1, False), ('old', 4, 1, True), ('water', 4, 1, True),
        ('strong', 4, 0, False), ('water', 4, 0, True),
    ]),
    (6, 1, 'eos'): (-8.234906961192934, [
        ('bridge', 3, None, False), ('bridge', 3, None, False), ('bridge', 3, None, False),
        ('bridge', 3, None, False), ('bridge', 3, None, False), ('bridge', 3, None, False),
        ('bridge', 3, None, False), ('bridge', 3, None, False),
    ]),
    (6, 4, 'eos'): (-4.116987312024035, [
        ('bridge', 3, None, False), ('bridge', 3, None, False), ('bridge', 3, None, False),
        ('<eos>', 3, None, False),
    ]),
    (7, 1, 'eos'): (-8.219544031522165, [
        ('bridge', 3, None, False), ('bridge', 3, None, False), ('bridge', 3, None, False),
        ('bridge', 3, None, False), ('bridge', 3, None, False), ('bridge', 3, None, False),
        ('bridge', 3, None, False), ('bridge', 3, None, False),
    ]),
    (7, 4, 'eos'): (-8.219544031522165, [
        ('bridge', 3, None, False), ('bridge', 3, None, False), ('bridge', 3, None, False),
        ('bridge', 3, None, False), ('bridge', 3, None, False), ('bridge', 3, None, False),
        ('bridge', 3, None, False), ('bridge', 3, None, False),
    ]),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_decode_golden(case):
    score, steps = GOLDEN[case]
    result = decode(*case)
    got = [(s.token, int(s.chosen), s.fact_id, s.continuation) for s in result.trace]
    assert got == steps
    assert result.score == pytest.approx(score, rel=0, abs=1e-12)


def test_batched_step_equals_single_row_steps(vocab):
    """Three different carries stepped as one (3, .) batch give, row for row,
    what three steps of one row each give, for every output and carry field,
    all against one example's encoder outputs."""
    model = make_model(vocab, seed=3)
    q_ids = [vocab.encode(t) for t in QUESTION.split()]
    p_ids = [vocab.encode(t) for t in PASSAGE.split()]
    enc_q, enc_p = model.encode_question([q_ids]), model.encode_passage([p_ids])
    state = model.initial_state(enc_q, enc_p)
    states = []
    for token in ("the", "bridge", "is"):
        x = ad.lookup(model.embedding, [vocab.encode(token)])
        state = model.step(enc_q, enc_p, state, x).state
        states.append(state)
    ids = [vocab.encode(t) for t in ("safe", "water", "old")]
    names = [f.name for f in fields(StepState)]
    batch = StepState(*(ad.concat([getattr(s, name) for s in states]) for name in names))
    batched = model.step(enc_q, enc_p, batch, ad.lookup(model.embedding, ids))
    for row, (single_state, token_id) in enumerate(zip(states, ids)):
        single = model.step(enc_q, enc_p, single_state, ad.lookup(model.embedding, [token_id]))
        for name in ("a_q", "a_p"):
            np.testing.assert_allclose(getattr(batched, name).data[row],
                                       getattr(single, name).data[0], rtol=0, atol=1e-12)
        for name in names:
            np.testing.assert_allclose(getattr(batched.state, name).data[row],
                                       getattr(single.state, name).data[0], rtol=0, atol=1e-12)


def test_one_model_step_per_search_step(monkeypatch):
    """One generate call runs one beam search; each search step is one
    model step over at most beam-size rows, with at most one vocabulary
    and one fact head call."""
    events = []

    def record(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    step = AnswerModel.step

    def counted_step(self, enc_q, enc_p, state, x_emb):
        events.append(("step", x_emb.shape[0] if x_emb.data.ndim == 2 else 1))
        return step(self, enc_q, enc_p, state, x_emb)

    monkeypatch.setattr(AnswerModel, "step", counted_step)
    for name in ("vocab_distribution", "fact_distribution", "_beam_search"):
        monkeypatch.setattr(decoding, name, record(name, getattr(decoding, name)))

    beam, max_len = 4, 8
    seen = set()
    for case in [(seed, beam, "kb") for seed in range(4)] + [(4, beam, "forced"),
                                                             (6, beam, "eos")]:
        events.clear()
        result = decode(*case, max_len=max_len)
        assert events.count("_beam_search") == 1
        steps = [e for e in events if isinstance(e, tuple)]
        assert len(result.trace) <= len(steps) <= max_len
        assert all(rows <= beam for _, rows in steps)
        per_step, heads = [], None
        for e in events:
            if isinstance(e, tuple):
                heads = []
                per_step.append(heads)
            elif e != "_beam_search":
                heads.append(e)
                seen.add(e)
        for heads in per_step:
            assert heads.count("vocab_distribution") <= 1
            assert heads.count("fact_distribution") <= 1
    assert seen == {"vocab_distribution", "fact_distribution"}


def test_generate_encodes_its_example_as_a_batch_of_one(monkeypatch):
    """Beam search runs the batch-only model path: one encode call each for
    the question and the passage, each on a batch of one sequence, and every
    lstm_seq call, encoder or decoder cell, on a (B, N, in) input."""
    encoded, lstm_ranks = [], []
    encode, lstm_seq = model_module.encode, ad.lstm_seq

    def noted_encode(seqs, *args):
        encoded.append([list(seq) for seq in seqs])
        return encode(seqs, *args)

    def noted_lstm_seq(x, *args, **kwargs):
        lstm_ranks.append(x.data.ndim)
        return lstm_seq(x, *args, **kwargs)

    monkeypatch.setattr(model_module, "encode", noted_encode)
    monkeypatch.setattr(ad, "lstm_seq", noted_lstm_seq)
    vocab = make_vocab()
    decode(0, 4, "kb")
    assert encoded == [[[vocab.encode(t) for t in QUESTION.split()]],
                       [[vocab.encode(t) for t in PASSAGE.split()]]]
    assert len(lstm_ranks) > 4 and set(lstm_ranks) == {3}
