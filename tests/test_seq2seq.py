import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from answergen import autodiff as ad
from answergen import seq2seq as s2s
from answergen.errors import EmptySequenceError, ShapeMismatchError
from answergen.seq2seq import (
    MASK_LOGIT,
    AttentionParams,
    EncoderParams,
    attend,
    context_vector,
    coverage_penalty,
    encode,
    padding_mask,
)

from conftest import force_cpus


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


def taped_sigmoid(x):
    out = ad._sigmoid(x.data)
    return ad._record("sigmoid", (x,), out, lambda g: [(x, g * out * (1.0 - out))])


def taped_lstm_step(p, x, h, c):
    """Reference cell: the gate arithmetic as 17 small tape nodes."""
    hid = p.hidden
    gates = ad.add(ad.add(ad.matmul(x, p.w_x), ad.matmul(h, p.w_h)), p.b)
    i = taped_sigmoid(ad.slice_(gates, 0, hid, axis=-1))
    f = taped_sigmoid(ad.slice_(gates, hid, 2 * hid, axis=-1))
    g = ad.tanh(ad.slice_(gates, 2 * hid, 3 * hid, axis=-1))
    o = taped_sigmoid(ad.slice_(gates, 3 * hid, 4 * hid, axis=-1))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    return h_new, c_new


def make_encoder(rng, emb_dim=4, hidden=3):
    return s2s.EncoderParams.init(rng, emb_dim, hidden, "enc")


def make_keys(rng, hidden=3, attn_dim=4):
    """An attention's (2H, A) state projection, for encode's keys."""
    return ad.Tensor(rng.uniform(-0.5, 0.5, (2 * hidden, attn_dim)), requires_grad=True)


def test_encode_single_token_full_scale_dims():
    rng = np.random.default_rng(0)
    emb = ad.Tensor(rng.uniform(-0.1, 0.1, (5, 300)), requires_grad=True)
    params = s2s.EncoderParams.init(rng, 300, 256, "enc")
    out = s2s.encode([[2]], emb, params, make_keys(rng, 256, 500))
    assert out.states.shape == (1, 1, 512)
    assert out.keys.shape == (1, 1, 500)
    assert out.final_h.shape == (1, 512)


def test_encode_zero_params_zero_states():
    emb = ad.constant(np.zeros((4, 3)))
    params = s2s.EncoderParams.init(np.random.default_rng(0), 3, 2, "enc")
    for cell in (params.fwd, params.bwd):
        for t in (cell.w_x, cell.w_h, cell.b):
            t.data[:] = 0.0
    out = s2s.encode([[0, 1, 2]], emb, params, make_keys(np.random.default_rng(1), 2))
    assert np.all(out.states.data == 0.0)


def test_encode_empty_sequence():
    emb = ad.constant(np.zeros((4, 3)))
    params = make_encoder(np.random.default_rng(0), 3, 2)
    for seqs in ([], [[]], [[1, 2], []]):
        with pytest.raises(EmptySequenceError):
            s2s.encode(seqs, emb, params, make_keys(np.random.default_rng(1), 2))


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
    w_keys = make_keys(rng, hid)
    fwd_half = s2s.encode([ids], emb, params, w_keys).states.data[0, :, :hid]
    bwd_half_rev = s2s.encode([ids[::-1]], emb, params, w_keys).states.data[0, :, hid:]
    np.testing.assert_allclose(bwd_half_rev, fwd_half[::-1], atol=1e-12)


def encode_loop(seqs, embeddings, params, w_keys):
    """Reference encoder of a batch of one: one taped_lstm_step per token and
    direction."""
    [ids] = seqs
    hid = params.fwd.hidden
    embs = [ad.lookup(embeddings, [i]) for i in ids]                      # (1, emb) each

    def run(cell, seq):
        h = c = ad.constant(np.zeros((1, hid)))
        states = []
        for x in seq:
            h, c = taped_lstm_step(cell, x, h, c)
            states.append(h)
        return states, h, c

    fwd_states, fwd_h, fwd_c = run(params.fwd, embs)
    bwd_states, bwd_h, bwd_c = run(params.bwd, embs[::-1])
    states = ad.reshape(ad.stack([ad.concat([f, b], axis=-1)
                                  for f, b in zip(fwd_states, bwd_states[::-1])]),
                        (1, len(ids), 2 * hid))
    return s2s.EncoderOutput(states=states, keys=ad.matmul(states, w_keys),
                             final_h=ad.concat([fwd_h, bwd_h], axis=-1),
                             final_c=ad.concat([fwd_c, bwd_c], axis=-1))


@pytest.mark.parametrize("ids", [[3], [0, 5], [2, 4, 4, 1, 0, 5, 3, 2, 6]])
def test_encode_matches_lstm_step_loop(ids):
    """The fused encoder gives the per-step loop's values and gradients for
    every encoder weight, the key projection and the embedding table."""
    rng = np.random.default_rng(len(ids))
    hid = 3
    emb = ad.Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    params = make_encoder(rng, 4, hid)
    for cell in (params.fwd, params.bwd):
        for t in (cell.w_x, cell.w_h, cell.b):
            t.data *= 10.0  # well away from the linear regime of the gates
    w_keys = make_keys(rng, hid)
    fields = ("states", "keys", "final_h", "final_c")
    weights = {name: ad.constant(rng.normal(size=shape)) for name, shape in
               (("states", (1, len(ids), 2 * hid)), ("keys", (1, len(ids), 4)),
                ("final_h", (1, 2 * hid)), ("final_c", (1, 2 * hid)))}
    wrt = [emb, w_keys] + [getattr(cell, name) for cell in (params.fwd, params.bwd)
                           for name in ("w_x", "w_h", "b")]
    results = []
    for encoder in (s2s.encode, encode_loop):
        with ad.Tape() as tape:
            out = encoder([ids], emb, params, w_keys)
            loss = ad.sum(ad.concat([ad.reshape(ad.mul(getattr(out, name), weights[name]), (-1,))
                                     for name in fields]))
        results.append((out, tape.backward(loss, params=wrt)))
    (fused, fused_grads), (loop, loop_grads) = results
    for name in fields:
        np.testing.assert_allclose(getattr(fused, name).data, getattr(loop, name).data,
                                   rtol=1e-12, atol=1e-12, err_msg=name)
    for t in wrt:
        np.testing.assert_allclose(fused_grads[t], loop_grads[t], rtol=1e-12, atol=1e-12,
                                   err_msg=t.name)


def test_encode_tape_size_independent_of_length():
    """One encode records the same nodes for 1 token as for 200: the time
    loop runs inside the lstm_seq primitive, not on the tape."""
    rng = np.random.default_rng(4)
    emb = ad.Tensor(rng.normal(size=(10, 4)), requires_grad=True)
    params = make_encoder(rng, 4, 3)
    w_keys = make_keys(rng)
    kinds = []
    for n in (1, 200):
        with ad.Tape() as tape:
            s2s.encode([rng.integers(0, 10, size=n).tolist()], emb, params, w_keys)
        kinds.append([node.op_kind for node in tape.nodes])
    assert kinds[0] == kinds[1]
    assert kinds[0].count("lstm_seq") == 2 and len(kinds[0]) <= 12, kinds[0]


def test_lstm_step_matches_cell_oracle():
    rng = np.random.default_rng(5)
    params = s2s.LSTMParams.init(rng, 4, 3, "cell")
    x, h, c = rng.normal(size=4), rng.normal(size=3), rng.normal(size=3)
    got_h, got_c = s2s.lstm_step(params, *(ad.constant(v[None]) for v in (x, h, c)))
    want_h, want_c = lstm_cell_oracle(params.w_x.data.T, params.w_h.data.T,
                                      params.b.data, x, h, c)
    np.testing.assert_allclose(got_h.data, [want_h], atol=1e-12)
    np.testing.assert_allclose(got_c.data, [want_c], atol=1e-12)
    with pytest.raises(ShapeMismatchError):  # one row is a batch of one
        s2s.lstm_step(params, *(ad.constant(v) for v in (x, h, c)))


@pytest.mark.parametrize("lead", [(1,), (3,)])
def test_lstm_step_equals_the_taped_cell(lead):
    """From a nonzero state, lstm_step gives the taped cell's h', c' and
    gradients for the input, the state and every weight, on a batch of one
    row and of three."""
    rng = np.random.default_rng(len(lead))
    params = s2s.LSTMParams.init(rng, 4, 3, "cell")
    for t in (params.w_x, params.w_h, params.b):
        t.data *= 10.0  # well away from the linear regime of the gates
    x, h, c = (ad.Tensor(rng.normal(size=lead + (n,)), requires_grad=True) for n in (4, 3, 3))
    w_h_out, w_c_out = (ad.constant(rng.normal(size=lead + (3,))) for _ in range(2))
    wrt = [x, h, c, params.w_x, params.w_h, params.b]
    results = []
    for cell in (s2s.lstm_step, taped_lstm_step):
        with ad.Tape() as tape:
            h_new, c_new = cell(params, x, h, c)
            loss = ad.add(ad.sum(ad.mul(h_new, w_h_out)), ad.sum(ad.mul(c_new, w_c_out)))
        results.append((h_new, c_new, tape.backward(loss)))
    (h_got, c_got, got), (h_want, c_want, want) = results
    np.testing.assert_allclose(h_got.data, h_want.data, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(c_got.data, c_want.data, rtol=1e-12, atol=1e-12)
    for t, name in zip(wrt, ("x", "h", "c", "w_x", "w_h", "b")):
        assert t in got.grads, name
        np.testing.assert_allclose(got[t], want[t], rtol=1e-12, atol=1e-12, err_msg=name)


def test_backward_of_an_lstm_step_chain_holds_one_input_weight_gradient():
    """Nine decoder steps into one (512, 512) w_x hand their weight gradients
    back as factors, multiplied out once, so backward never holds a second
    w_x-sized array."""
    rng = np.random.default_rng(5)
    params = s2s.LSTMParams.init(rng, 512, 128, "cell")
    h = c = ad.constant(np.zeros((1, 128)))
    with ad.Tape() as tape:
        for _ in range(9):
            h, c = s2s.lstm_step(params, ad.constant(rng.normal(size=(1, 512))), h, c)
        loss = ad.sum(h)
    tracemalloc.start()
    try:
        grads = tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grads[params.w_x].shape == params.w_x.shape
    assert peak < 1.5 * params.w_x.data.nbytes, peak / params.w_x.data.nbytes


def test_lstm_step_deterministic():
    rng = np.random.default_rng(6)
    params = s2s.LSTMParams.init(rng, 4, 3, "cell")
    x, h, c = (ad.constant(rng.normal(size=(1, n))) for n in (4, 3, 3))
    a = s2s.lstm_step(params, x, h, c)
    b = s2s.lstm_step(params, x, h, c)
    np.testing.assert_array_equal(a[0].data, b[0].data)


def test_lstm_step_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    params = s2s.LSTMParams.init(rng, 3, 2, "cell")
    x = ad.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    h0 = ad.constant(np.zeros((1, 2)))
    c0 = ad.constant(np.zeros((1, 2)))
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
    a = s2s.attend(ad.constant(states @ p.w_states.data), ad.constant(rng.normal(size=3)),
                   ad.constant(np.zeros(5)), p)
    np.testing.assert_allclose(a.data, np.full(5, 0.2), atol=1e-12)


def test_attend_single_position():
    rng = np.random.default_rng(9)
    p = make_attention(rng)
    a = s2s.attend(ad.constant(rng.normal(size=(1, 6)) @ p.w_states.data),
                   ad.constant(rng.normal(size=3)), ad.constant(np.zeros(1)), p)
    np.testing.assert_allclose(a.data, [1.0])


def test_attend_matches_transcription_oracle():
    rng = np.random.default_rng(10)
    p = make_attention(rng)
    states = rng.normal(size=(7, 6))
    s_t = rng.normal(size=3)
    cov = rng.uniform(0, 2, size=7)
    got = s2s.attend(ad.constant(states @ p.w_states.data), ad.constant(s_t),
                     ad.constant(cov), p)
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
    got = s2s.attend(ad.constant(states @ p.w_states.data), ad.constant(s_t),
                     ad.constant(cov), p, context=ad.constant(ctx))
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
    assert float(repeat.data) > float(move_on.data)
    zero = s2s.coverage_penalty(ad.constant(focus), ad.constant(np.zeros(5)))
    assert float(zero.data) == 0.0


def test_padding_mask_is_mask_logit_at_padding_and_none_without_it():
    filled = np.array([[True, True, False], [True, False, False]])
    np.testing.assert_array_equal(padding_mask(filled).data,
                                  [[0.0, 0.0, MASK_LOGIT], [0.0, MASK_LOGIT, MASK_LOGIT]])
    assert padding_mask(np.ones((2, 3), dtype=bool)) is None


def test_padded_positions_get_zero_weight_and_zero_gradient():
    """Attention over a padded batch puts exactly zero weight on padded
    positions, and their states and keys get exactly zero gradient."""
    rng = np.random.default_rng(6)
    hid, attn = 3, 4
    params = AttentionParams.init(rng, 2 * hid, hid, attn, "a", with_context=True)
    lengths = np.array([2, 5, 4])
    states = ad.Tensor(rng.normal(size=(3, 5, 2 * hid)), requires_grad=True)
    keys = ad.Tensor(rng.normal(size=(3, 5, attn)), requires_grad=True)
    padded = np.arange(5) >= lengths[:, None]
    mask = ad.constant(np.where(padded, MASK_LOGIT, 0.0))
    s_t = ad.constant(rng.normal(size=(3, hid)))
    context = ad.constant(rng.normal(size=(3, 2 * hid)))
    coverage = ad.constant(np.where(padded, 0.0, rng.uniform(0, 1, (3, 5))))
    with ad.Tape() as tape:
        a = attend(keys, s_t, coverage, params, context=context, mask=mask)
        c = context_vector(a, states)
        loss = ad.sum(ad.mul(c, ad.constant(rng.normal(size=c.shape))))
        loss = ad.add(loss, ad.sum(coverage_penalty(a, coverage)))
    grads = tape.backward(loss)
    assert (a.data[padded] == 0.0).all()
    np.testing.assert_allclose(a.data.sum(axis=1), 1.0, atol=1e-12)
    assert not grads[states][padded].any() and not grads[keys][padded].any()
    assert grads[states][~padded].any() and grads[keys][~padded].any()
    for row, n in enumerate(lengths):
        alone = attend(ad.constant(keys.data[row, :n]), ad.constant(s_t.data[row]),
                       ad.constant(coverage.data[row, :n]), params,
                       context=ad.constant(context.data[row]))
        np.testing.assert_allclose(a.data[row, :n], alone.data, rtol=0, atol=1e-15)


def test_encode_batch_equals_each_sequence():
    """A batch of sequences of different lengths encodes, row for row, as
    each sequence alone; the mask marks the padding."""
    rng = np.random.default_rng(9)
    emb = ad.Tensor(rng.uniform(-0.5, 0.5, (12, 4)))
    params = EncoderParams.init(rng, 4, 3, "enc")
    w_keys = ad.Tensor(rng.uniform(-0.5, 0.5, (6, 5)))
    seqs = [[4, 5], [6, 7, 8, 9, 10], [11], [4, 4, 4]]
    batch = encode(seqs, emb, params, w_keys)
    assert batch.states.shape == (4, 5, 6) and batch.final_h.shape == (4, 6)
    np.testing.assert_array_equal(batch.mask.data == MASK_LOGIT,
                                  np.arange(5) >= np.array([2, 5, 1, 3])[:, None])
    for row, seq in enumerate(seqs):
        alone = encode([seq], emb, params, w_keys)
        assert alone.mask is None
        for name in ("states", "keys"):
            np.testing.assert_allclose(getattr(batch, name).data[row, :len(seq)],
                                       getattr(alone, name).data[0], rtol=0, atol=1e-12)
        for name in ("final_h", "final_c"):
            np.testing.assert_allclose(getattr(batch, name).data[row],
                                       getattr(alone, name).data[0], rtol=0, atol=1e-12)


class DirectionWatch:
    """Wraps `autodiff._lstm_run` and the helper's executor: records, per
    run, whether it was the reverse direction and whether it ran on a helper
    thread (in the order the runs started, which threads may swap), and
    counts the executors made."""

    def __init__(self, monkeypatch):
        self.runs: list[tuple[bool, bool]] = []
        self.executors = 0
        run, executor = ad._lstm_run, ad.ThreadPoolExecutor

        def watched_run(*args):
            self.runs.append((args[4], threading.current_thread() is not threading.main_thread()))
            return run(*args)

        def counted_executor(*args):
            self.executors += 1
            return executor(*args)

        monkeypatch.setattr(ad, "_lstm_run", watched_run)
        monkeypatch.setattr(ad, "ThreadPoolExecutor", counted_executor)


def encode_and_backward(hidden, seed=7):
    """Encode a padded batch of two sequences on a tape and sweep it back:
    the output values, each recorded node's op kind and input names, and
    every leaf gradient."""
    rng = np.random.default_rng(seed)
    emb = ad.Tensor(rng.uniform(-0.5, 0.5, (12, 6)), requires_grad=True)
    params = make_encoder(rng, 6, hidden)
    w_keys = make_keys(rng, hidden, 5)
    with ad.Tape() as tape:
        out = encode([[4, 5, 6, 7, 8], [9, 10]], emb, params, w_keys)
        parts = [out.keys, out.final_h, out.final_c]
        loss = ad.sum(ad.concat([ad.reshape(ad.mul(t, ad.constant(rng.normal(size=t.shape))),
                                            (-1,)) for t in parts]))
    kinds = [(node.op_kind, [t.name for t in node.inputs]) for node in tape.nodes]
    grads = tape.backward(loss).grads
    leaves = [emb, w_keys] + [getattr(getattr(params, d), w) for d in ("fwd", "bwd")
                              for w in ("w_x", "w_h", "b")]
    return [t.data for t in parts + [out.states]], kinds, [grads[t] for t in leaves]


def test_encode_on_two_cpus_is_bit_for_bit_encode_on_one(monkeypatch):
    """At full hidden size (w_h has HANDOFF_SIZE entries) the reverse
    direction runs on a helper thread when two CPUs are free, and the values,
    the recorded nodes in their order (forward direction first), and every
    gradient are those of one CPU, bit for bit, at the default thread switch interval and at one of a
    microsecond."""
    results = []
    interval = sys.getswitchinterval()
    for cpus, switch in ((1, interval), (2, interval), (2, 1e-6)):
        monkeypatch.undo()
        force_cpus(monkeypatch, cpus)
        watch = DirectionWatch(monkeypatch)
        sys.setswitchinterval(switch)
        try:
            results.append(encode_and_backward(256))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(watch.runs) == [(False, False), (True, cpus > 1)]
    values, kinds, grads = results[0]
    assert [names[1] for kind, names in kinds if kind == "lstm_seq"] == ["enc.fwd.w_x",
                                                                        "enc.bwd.w_x"]
    for other_values, other_kinds, other_grads in results[1:]:
        assert other_kinds == kinds
        for one, two in zip(values + grads, other_values + other_grads):
            assert one.tobytes() == two.tobytes()


@pytest.mark.parametrize("hidden, cpus, helpers", [(32, 2, 0), (255, 2, 0), (256, 1, 0),
                                                   (256, 2, 1)])
def test_encode_starts_a_helper_only_on_two_cpus_past_the_size_rule(monkeypatch, hidden, cpus,
                                                                    helpers):
    """Desk dims (H=32) and H=255 stay on the calling thread; so does full
    dims on one CPU. Whichever way, no thread outlives encode."""
    force_cpus(monkeypatch, cpus)
    watch = DirectionWatch(monkeypatch)
    rng = np.random.default_rng(8)
    emb = ad.Tensor(rng.uniform(-0.5, 0.5, (12, 6)))
    before = threading.active_count()
    encode([[4, 5, 6], [7]], emb, make_encoder(rng, 6, hidden), make_keys(rng, hidden, 5))
    assert threading.active_count() == before
    assert watch.executors == helpers
    assert sorted(watch.runs) == [(False, False), (True, helpers == 1)]


def test_an_error_in_the_helper_direction_reaches_the_caller(monkeypatch):
    """A reverse direction that fails on the helper raises from encode, and
    the helper has ended by then."""
    force_cpus(monkeypatch, 2)
    rng = np.random.default_rng(9)
    params = make_encoder(rng, 6, 256)
    params = replace(params, bwd=replace(params.bwd, b=ad.Tensor(np.zeros(5))))
    before = threading.active_count()
    with pytest.raises(ShapeMismatchError, match="lstm_seq"):
        encode([[4, 5]], ad.Tensor(rng.uniform(-0.5, 0.5, (12, 6))), params,
               make_keys(rng, 256, 5))
    assert threading.active_count() == before
