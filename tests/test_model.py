import numpy as np
import pytest

from answergen import autodiff as ad
from answergen import model as model_module
from answergen.seq2seq import lstm_step

from conftest import make_model, toy_example


def encode_one(model, example):
    """The example's encoder outputs and initial carry, as a batch of one."""
    enc_q = model.encode_question([example.question_ids])
    enc_p = model.encode_passage([example.passage_ids])
    return enc_q, enc_p, model.initial_state(enc_q, enc_p)


def embed(model, token_id):
    return ad.lookup(model.embedding, [token_id])


def run_steps(model, example, n_steps):
    enc_q, enc_p, state = encode_one(model, example)
    outputs = []
    for token_id in example.answer_ids[:n_steps]:
        out = model.step(enc_q, enc_p, state, embed(model, token_id))
        outputs.append(out)
        state = out.state
    return outputs


def test_attention_is_simplex_every_timestep(vocab):
    model = make_model(vocab, seed=0)
    for out in run_steps(model, toy_example(vocab), 5):
        for a in (out.a_q, out.a_p):
            assert abs(a.data.sum() - 1.0) < 1e-12
            assert np.all(a.data >= 0.0)


def test_coverage_monotone_non_decreasing(vocab):
    model = make_model(vocab, seed=1)
    prev_q = prev_p = None
    for out in run_steps(model, toy_example(vocab), 5):
        cov_q, cov_p = out.state.cov_q.data, out.state.cov_p.data
        if prev_q is not None:
            assert np.all(cov_q >= prev_q - 1e-15)
            assert np.all(cov_p >= prev_p - 1e-15)
        prev_q, prev_p = cov_q, cov_p
    # after T steps each coverage sums to T
    assert prev_q.sum() == pytest.approx(5.0, abs=1e-9)


def test_coverage_equals_sum_of_past_attentions(vocab):
    model = make_model(vocab, seed=2)
    outputs = run_steps(model, toy_example(vocab), 4)
    acc = np.zeros_like(outputs[0].a_q.data)
    for out in outputs:
        acc = acc + out.a_q.data
        np.testing.assert_allclose(out.state.cov_q.data, acc, atol=1e-12)


def test_parameter_registry_names_unique_and_complete(vocab):
    model = make_model(vocab, seed=0)
    names = list(model.parameters)
    assert len(names) == len(set(names))
    assert "embedding" in names
    assert model.parameter_count() == sum(t.data.size for t in model.parameters.values())


def test_step_is_pure_given_state(vocab):
    model = make_model(vocab, seed=3)
    ex = toy_example(vocab)
    enc_q, enc_p, state = encode_one(model, ex)
    x = embed(model, ex.answer_ids[0])
    a = model.step(enc_q, enc_p, state, x)
    b = model.step(enc_q, enc_p, state, x)
    np.testing.assert_array_equal(a.state.h.data, b.state.h.data)
    np.testing.assert_array_equal(a.a_p.data, b.a_p.data)


def test_step_records_its_cell_as_one_lstm_seq_node(vocab, monkeypatch):
    """The decoder cell is a one-step lstm_seq: one fused node, no sigmoid
    node, at most five nodes in all."""
    model = make_model(vocab, seed=0)
    ex = toy_example(vocab)
    spans = []

    def noted_lstm_step(*args):
        start = len(tape.nodes)
        out = lstm_step(*args)
        spans.append((start, len(tape.nodes)))
        return out

    monkeypatch.setattr(model_module, "lstm_step", noted_lstm_step)
    with ad.Tape() as tape:
        enc_q, enc_p, state = encode_one(model, ex)
        model.step(enc_q, enc_p, state, embed(model, ex.answer_ids[0]))
    [(start, stop)] = spans
    cell = [node.op_kind for node in tape.nodes[start:stop]]
    assert cell.count("lstm_seq") == 1 and len(cell) <= 5, cell
    assert "sigmoid" not in [node.op_kind for node in tape.nodes]
