from dataclasses import replace

import numpy as np
import pytest

from answergen import autodiff as ad
from answergen import seq2seq as s2s
from answergen.errors import EmptySequenceError


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_cell_oracle(wx, wh, b, x, h, c):
    """Straight-line gate arithmetic, independent of the tape code."""
    hid = wh.shape[1]
    gates = wx @ x + wh @ h + b
    i = sig(gates[:hid])
    f = sig(gates[hid:2 * hid])
    g = np.tanh(gates[2 * hid:3 * hid])
    o = sig(gates[3 * hid:])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


def make_encoder(rng, emb_dim=4, hidden=3):
    return s2s.EncoderParams.init(rng, emb_dim, hidden, "enc")


def test_encode_single_token_full_scale_dims():
    rng = np.random.default_rng(0)
    emb = ad.Tensor(rng.uniform(-0.1, 0.1, (5, 300)), requires_grad=True)
    params = s2s.EncoderParams.init(rng, 300, 256, "enc")
    out = s2s.encode([2], emb, params)
    assert out.states.shape == (1, 512)
    assert out.final_h.shape == (512,)


def test_encode_zero_params_zero_states():
    emb = ad.constant(np.zeros((4, 3)))
    params = s2s.EncoderParams.init(np.random.default_rng(0), 3, 2, "enc")
    for cell in (params.fwd, params.bwd):
        for t in (cell.w_x, cell.w_h, cell.b):
            t.data[:] = 0.0
    out = s2s.encode([0, 1, 2], emb, params)
    assert np.all(out.states.data == 0.0)


def test_encode_empty_sequence():
    emb = ad.constant(np.zeros((4, 3)))
    params = make_encoder(np.random.default_rng(0), 3, 2)
    with pytest.raises(EmptySequenceError):
        s2s.encode([], emb, params)


def test_encode_direction_symmetry():
    """With tied cells, the backward states of the reversed input equal the
    reversed forward states of the original input."""
    rng = np.random.default_rng(3)
    emb = ad.Tensor(rng.normal(size=(6, 4)))
    params = make_encoder(rng, 4, 3)
    for name in ("w_x", "w_h", "b"):
        getattr(params.bwd, name).data[:] = getattr(params.fwd, name).data
    ids = [0, 2, 4, 1, 5]
    hid = 3
    fwd_half = s2s.encode(ids, emb, params).states.data[:, :hid]
    bwd_half_rev = s2s.encode(ids[::-1], emb, params).states.data[:, hid:]
    np.testing.assert_allclose(bwd_half_rev, fwd_half[::-1], atol=1e-12)


def test_lstm_step_matches_cell_oracle():
    rng = np.random.default_rng(5)
    params = s2s.LSTMParams.init(rng, 4, 3, "cell")
    x, h, c = rng.normal(size=4), rng.normal(size=3), rng.normal(size=3)
    got_h, got_c = s2s.lstm_step(params, ad.constant(x), ad.constant(h), ad.constant(c))
    want_h, want_c = lstm_cell_oracle(params.w_x.data.T, params.w_h.data.T,
                                      params.b.data, x, h, c)
    np.testing.assert_allclose(got_h.data, want_h, atol=1e-12)
    np.testing.assert_allclose(got_c.data, want_c, atol=1e-12)


def test_lstm_step_deterministic():
    rng = np.random.default_rng(6)
    params = s2s.LSTMParams.init(rng, 4, 3, "cell")
    x, h, c = (ad.constant(rng.normal(size=n)) for n in (4, 3, 3))
    a = s2s.lstm_step(params, x, h, c)
    b = s2s.lstm_step(params, x, h, c)
    np.testing.assert_array_equal(a[0].data, b[0].data)


def test_lstm_step_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    params = s2s.LSTMParams.init(rng, 3, 2, "cell")
    x = ad.Tensor(rng.normal(size=3), requires_grad=True)
    h0 = ad.constant(np.zeros(2))
    c0 = ad.constant(np.zeros(2))
    wrt = [params.w_x, params.w_h, params.b, x]

    def f():
        h, _ = s2s.lstm_step(params, x, h0, c0)
        return ad.sum(h)

    report = ad.gradient_check(f, wrt, eps=1e-5)
    assert report.max_rel_error < 1e-4, report


# --- attention ---

def attention_oracle(states, s_t, cov, p, context=None):
    """Per-position transcription of the attention formula."""
    logits = []
    for i in range(states.shape[0]):
        pre = (p.w_states.data.T @ states[i] + p.u_state.data @ s_t
               + p.b.data + cov[i] * p.w_cov.data)
        if context is not None:
            pre = pre + p.v_context.data @ context
        logits.append(p.gate.data @ np.tanh(pre))
    logits = np.array(logits)
    e = np.exp(logits - logits.max())
    return e / e.sum()


def make_attention(rng, state_dim=6, dec_dim=3, attn_dim=4, with_context=False):
    return s2s.AttentionParams.init(rng, state_dim, dec_dim, attn_dim, "attn",
                                    with_context=with_context)


def test_attend_uniform_for_identical_states():
    rng = np.random.default_rng(8)
    p = make_attention(rng)
    states = np.tile(rng.normal(size=6), (5, 1))
    a = s2s.attend(ad.constant(states), ad.constant(rng.normal(size=3)),
                   ad.constant(np.zeros(5)), p)
    np.testing.assert_allclose(a.data, np.full(5, 0.2), atol=1e-12)


def test_attend_single_position():
    rng = np.random.default_rng(9)
    p = make_attention(rng)
    a = s2s.attend(ad.constant(rng.normal(size=(1, 6))),
                   ad.constant(rng.normal(size=3)), ad.constant(np.zeros(1)), p)
    np.testing.assert_allclose(a.data, [1.0])


def test_attend_matches_transcription_oracle():
    rng = np.random.default_rng(10)
    p = make_attention(rng)
    states = rng.normal(size=(7, 6))
    s_t = rng.normal(size=3)
    cov = rng.uniform(0, 2, size=7)
    got = s2s.attend(ad.constant(states), ad.constant(s_t), ad.constant(cov), p)
    oracle_p = replace(p, u_state=ad.constant(p.u_state.data.T))
    np.testing.assert_allclose(got.data, attention_oracle(states, s_t, cov, oracle_p),
                               atol=1e-12)


def test_attend_with_context_matches_oracle():
    rng = np.random.default_rng(11)
    p = make_attention(rng, with_context=True)
    states = rng.normal(size=(4, 6))
    s_t = rng.normal(size=3)
    cov = rng.uniform(0, 1, size=4)
    ctx = rng.normal(size=6)
    got = s2s.attend(ad.constant(states), ad.constant(s_t), ad.constant(cov), p,
                     context=ad.constant(ctx))
    oracle_p = replace(p, u_state=ad.constant(p.u_state.data.T),
                       v_context=ad.constant(p.v_context.data.T))
    np.testing.assert_allclose(got.data, attention_oracle(states, s_t, cov, oracle_p, ctx),
                               atol=1e-12)


def test_context_vector_one_hot_and_uniform():
    rng = np.random.default_rng(12)
    states = rng.normal(size=(4, 5))
    one_hot = np.zeros(4)
    one_hot[2] = 1.0
    c = s2s.context_vector(ad.constant(one_hot), ad.constant(states))
    np.testing.assert_allclose(c.data, states[2], atol=1e-15)
    uniform = np.full(4, 0.25)
    c = s2s.context_vector(ad.constant(uniform), ad.constant(states))
    np.testing.assert_allclose(c.data, states.mean(axis=0), atol=1e-15)


def test_context_vector_matches_weighted_sum():
    rng = np.random.default_rng(13)
    states = rng.normal(size=(6, 4))
    a = rng.dirichlet(np.ones(6))
    c = s2s.context_vector(ad.constant(a), ad.constant(states))
    want = np.sum(a[:, None] * states, axis=0)
    np.testing.assert_allclose(c.data, want, atol=1e-12)


def test_coverage_penalty_increases_on_repetition():
    focus = np.zeros(5)
    focus[1] = 1.0
    spread = np.full(5, 0.2)
    cov_after_focus = focus.copy()
    repeat = s2s.coverage_penalty(ad.constant(focus), ad.constant(cov_after_focus))
    move_on = s2s.coverage_penalty(ad.constant(spread), ad.constant(cov_after_focus))
    assert repeat.item() > move_on.item()
    zero = s2s.coverage_penalty(ad.constant(focus), ad.constant(np.zeros(5)))
    assert zero.item() == 0.0
