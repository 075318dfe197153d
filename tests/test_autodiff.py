import gc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answergen import autodiff as ad
from answergen.errors import (
    NonFiniteLossError,
    NonFiniteValueError,
    ShapeMismatchError,
    TapeConsumedError,
)


def test_softmax_uniform_logits():
    out = ad.softmax(ad.constant([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_tanh_at_origin():
    out = ad.tanh(ad.constant(np.zeros((2, 3))))
    assert np.all(out.data == 0.0)


def test_matmul_ones():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((3, 2)))
    np.testing.assert_array_equal(ad.matmul(a, b).data, np.full((2, 2), 3.0))


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ShapeMismatchError):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


def test_matmul_stack_times_vector():
    """(..., N, K) @ (K,), the shape of the additive scorer over a batch;
    (..., K) @ (K, M), a layer over (T, B, .) rows; and (B, K) @ (B, K, M),
    each row against its own matrix, as a context vector over a batch."""
    rng = np.random.default_rng(3)
    a = ad.Tensor(rng.uniform(-1, 1, (2, 4, 3)), requires_grad=True)
    b = ad.Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
    np.testing.assert_allclose(ad.matmul(a, b).data, np.einsum("bnk,k->bn", a.data, b.data),
                               atol=1e-15)
    report = ad.gradient_check(lambda: _scalarize(ad.matmul(a, b), np.random.default_rng(0)),
                               [a, b], eps=1e-5)
    assert not report.flagged, report
    m = ad.Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
    np.testing.assert_allclose(ad.matmul(a, m).data, np.einsum("bnk,km->bnm", a.data, m.data),
                               atol=1e-15)
    rows = ad.Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
    np.testing.assert_allclose(ad.matmul(rows, a).data, np.einsum("bn,bnk->bk", rows.data, a.data),
                               atol=1e-15)
    for x, y in ((a, m), (rows, a)):
        report = ad.gradient_check(lambda: _scalarize(ad.matmul(x, y), np.random.default_rng(0)),
                                   [x, y], eps=1e-5)
        assert not report.flagged, report
    with pytest.raises(ShapeMismatchError):
        ad.matmul(a, ad.constant(np.ones((2, 2))))
    with pytest.raises(ShapeMismatchError):
        ad.matmul(ad.constant(np.ones((3, 4))), a)


def test_concat_negative_axis():
    a = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = ad.Tensor(np.zeros((2, 4)), requires_grad=True)
    with ad.Tape() as tape:
        out = ad.concat([a, b], axis=-1)
        loss = ad.sum(ad.mul(out, ad.constant(np.arange(14.0).reshape(2, 7))))
    assert out.shape == (2, 7)
    np.testing.assert_array_equal(out.data[:, :3], a.data)
    grads = tape.backward(loss, params=[a, b])
    np.testing.assert_array_equal(grads[a], [[0, 1, 2], [7, 8, 9]])
    np.testing.assert_array_equal(grads[b], [[3, 4, 5, 6], [10, 11, 12, 13]])
    with pytest.raises(ShapeMismatchError):
        ad.concat([a, b], axis=0)
    with pytest.raises(ShapeMismatchError):
        ad.concat([a, b], axis=2)


def test_backward_sum_gives_ones():
    x = ad.Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum(x)
    gm = tape.backward(loss)
    np.testing.assert_array_equal(gm[x], np.ones((3, 4)))


def test_backward_sum_of_squares():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum(ad.mul(x, x))
    gm = tape.backward(loss)
    np.testing.assert_allclose(gm[x], [2.0, 4.0])


def test_backward_through_softmax_sum_is_zero():
    x = ad.Tensor(np.random.default_rng(1).normal(size=5), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum(ad.softmax(x))
    gm = tape.backward(loss)
    np.testing.assert_allclose(gm[x], np.zeros(5), atol=1e-12)


def test_tape_consumed_once():
    x = ad.Tensor([1.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum(x)
    tape.backward(loss)
    with pytest.raises(TapeConsumedError):
        tape.backward(loss)


def test_disconnected_parameter_flagged():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    unused = ad.Tensor([5.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum(x)
    gm = tape.backward(loss, params=[x, unused])
    assert unused in gm.disconnected
    np.testing.assert_array_equal(gm[unused], [0.0])


def test_loss_must_be_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ShapeMismatchError):
        tape.backward(y)


def test_log_of_nonpositive_is_an_error():
    with pytest.raises(NonFiniteValueError):
        ad.log(ad.constant([1.0, 0.0]))


def test_no_recording_outside_tape():
    x = ad.Tensor([1.0], requires_grad=True)
    y = ad.mul(x, x)
    assert y._tape is None


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(-100, 100))
@settings(max_examples=50, deadline=None)
def test_softmax_shift_invariance(xs, c):
    x = np.array(xs)
    a = ad.softmax(ad.constant(x)).data
    b = ad.softmax(ad.constant(x + c)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# Finite-difference suite: every primitive, random inputs, 100 trials total.
# ---------------------------------------------------------------------------

def _scalarize(t, rng):
    w = ad.constant(rng.uniform(-1, 1, size=t.shape))
    return ad.sum(ad.mul(t, w))


def _primitive_case(kind, rng):
    """Build (f, wrt) exercising one primitive on random [-1, 1] inputs."""
    if kind == "matmul":
        shapes = rng.choice(4)
        a_shape, b_shape = [((2, 3), (3, 2)), ((2, 3), (3,)), ((3,), (3, 2)), ((3,), (3,))][shapes]
        a = ad.Tensor(rng.uniform(-1, 1, a_shape), requires_grad=True)
        b = ad.Tensor(rng.uniform(-1, 1, b_shape), requires_grad=True)
        return (lambda: _scalarize(ad.matmul(a, b), np.random.default_rng(0))), [a, b]
    if kind in ("add", "mul"):
        a = ad.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        b = ad.Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)  # broadcast path
        fn = ad.PRIMITIVES[kind]
        return (lambda: _scalarize(fn(a, b), np.random.default_rng(0))), [a, b]
    if kind in ("minimum", "maximum"):
        a_data = rng.uniform(-1, 1, (2, 3))
        b_data = rng.uniform(-1, 1, (2, 3))
        # keep away from ties so the subgradient choice cannot disagree with fd
        while np.any(np.abs(a_data - b_data) < 1e-3):
            b_data = rng.uniform(-1, 1, (2, 3))
        a = ad.Tensor(a_data, requires_grad=True)
        b = ad.Tensor(b_data, requires_grad=True)
        fn = ad.PRIMITIVES[kind]
        return (lambda: _scalarize(fn(a, b), np.random.default_rng(0))), [a, b]
    if kind == "concat":
        a = ad.Tensor(rng.uniform(-1, 1, (2,)), requires_grad=True)
        b = ad.Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
        return (lambda: _scalarize(ad.concat([a, b]), np.random.default_rng(0))), [a, b]
    if kind == "stack":
        a = ad.Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
        b = ad.Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
        return (lambda: _scalarize(ad.stack([a, b]), np.random.default_rng(0))), [a, b]
    if kind in ("tanh", "sigmoid", "softmax"):
        x = ad.Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        fn = ad.PRIMITIVES[kind]
        return (lambda: _scalarize(fn(x), np.random.default_rng(0))), [x]
    if kind == "log":
        x = ad.Tensor(rng.uniform(0.1, 1.1, (5,)), requires_grad=True)
        return (lambda: _scalarize(ad.log(x), np.random.default_rng(0))), [x]
    if kind == "sum":
        x = ad.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        axis = [None, 0, 1][rng.choice(3)]
        return (lambda: _scalarize(ad.sum(x, axis=axis), np.random.default_rng(0))), [x]
    if kind == "lookup":
        table = ad.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        # 1-D ids, or a padded 2-D (rows, slots) array as embed_facts builds;
        # ids may repeat
        ids = rng.integers(0, 4, size=[(3,), (2, 3)][rng.choice(2)])
        return (lambda: _scalarize(ad.lookup(table, ids), np.random.default_rng(0))), [table]
    if kind == "slice":
        x = ad.Tensor(rng.uniform(-1, 1, (6,)), requires_grad=True)
        return (lambda: _scalarize(ad.slice_(x, 1, 4), np.random.default_rng(0))), [x]
    if kind == "reshape":
        x = ad.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        return (lambda: _scalarize(ad.reshape(x, (6,)), np.random.default_rng(0))), [x]
    if kind == "additive_scores":
        # a (2, 3, A) batch of keys against (4, 2, A) shifts, as the fact
        # head scores each example's facts against its (T, B) rows
        keys = ad.Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
        shift = ad.Tensor(rng.uniform(-1, 1, (4, 2, 4)), requires_grad=True)
        gate = ad.Tensor(rng.uniform(-1, 1, (4,)), requires_grad=True)
        return (lambda: _scalarize(ad.additive_scores(keys, shift, gate),
                                   np.random.default_rng(0))), [keys, shift, gate]
    if kind == "lstm_seq":
        n, in_dim, hid = (int(v) for v in rng.integers(1, [6, 4, 4]))
        x = ad.Tensor(rng.uniform(-1, 1, (n, in_dim)), requires_grad=True)
        w_x, w_h = (ad.Tensor(rng.uniform(-1, 1, (rows, 4 * hid)), requires_grad=True)
                    for rows in (in_dim, hid))
        b = ad.Tensor(rng.uniform(-1, 1, (4 * hid,)), requires_grad=True)
        reverse = bool(rng.integers(2))
        # _scalarize weights every state row and the final cell row
        return (lambda: _scalarize(ad.lstm_seq(x, w_x, w_h, b, reverse=reverse),
                                   np.random.default_rng(0))), [x, w_x, w_h, b]
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", sorted(ad.PRIMITIVES))
def test_primitive_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for _ in range(100):
        f, wrt = _primitive_case(kind, rng)
        report = ad.gradient_check(f, wrt, eps=1e-5, rel_tol=1e-4)
        assert not report.flagged, (kind, report)


def test_gradient_check_tanh_chain():
    rng = np.random.default_rng(7)
    w = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x = ad.Tensor(rng.normal(size=4), requires_grad=True)
    report = ad.gradient_check(lambda: ad.sum(ad.tanh(ad.matmul(w, x))), [w, x], eps=1e-5)
    assert report.max_rel_error < 1e-4


def test_gradient_check_constant_function():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    report = ad.gradient_check(lambda: ad.constant(3.5), [x], eps=1e-5)
    assert report.max_rel_error == 0.0
    assert not report.flagged


def test_gradient_check_rejects_bad_eps():
    x = ad.Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        ad.gradient_check(lambda: ad.sum(x), [x], eps=1e-2)


def test_second_use_of_tensor_accumulates():
    x = ad.Tensor([3.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum(ad.mul(x, x))  # same tensor twice in one node
    gm = tape.backward(loss)
    np.testing.assert_allclose(gm[x], [6.0])


def test_accumulation_leaves_shared_gradients_alone():
    """add hands one gradient array to both of its inputs; adding later uses
    of one input into it must not change the other's gradient."""
    rng = np.random.default_rng(3)
    a, b = (ad.Tensor(rng.normal(size=4), requires_grad=True) for _ in range(2))
    w, w2, w3 = (ad.constant(rng.normal(size=4)) for _ in range(3))
    with ad.Tape() as tape:
        p, q = ad.mul(a, w2), ad.mul(a, w3)
        s = ad.add(a, b)  # recorded last among a's uses, so swept back first
        loss = ad.sum(ad.add(ad.add(ad.mul(s, w), p), q))
    gm = tape.backward(loss)
    np.testing.assert_array_equal(gm[b], w.data)
    np.testing.assert_allclose(gm[a], w.data + w2.data + w3.data, rtol=1e-15)


def test_backward_frees_the_graph_without_the_cycle_collector():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with ad.Tape() as tape:
            y = ad.tanh(x)
            loss = ad.sum(y)
        probe = weakref.ref(y.data)  # also held by tanh's node
        tape.backward(loss)
        assert tape.nodes == []
        del y, loss, tape
        assert probe() is None
    finally:
        if was_enabled:
            gc.enable()


def test_a_forward_that_raises_frees_the_graph_without_the_cycle_collector():
    """A NonFiniteLossError inside train_step's tape leaves a tape that no
    backward will sweep; leaving the block must still release its nodes."""
    x = ad.Tensor(np.ones(3), requires_grad=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(NonFiniteLossError):
            with ad.Tape() as tape:
                y = ad.tanh(x)
                probe = weakref.ref(y.data)  # also held by tanh's node
                raise NonFiniteLossError("loss is not finite")
        assert tape.nodes == []
        del y, tape
        assert probe() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("reverse", [False, True])
def test_batched_lstm_seq_equals_each_row(reverse):
    """A padded (B, N, in) batch with lengths 1..N gives, row for row, the
    states and final cell of each row's own unpadded run, and the same
    gradients, whatever the padding holds."""
    rng = np.random.default_rng(8)
    n, in_dim, hid = 5, 3, 4
    lengths = np.arange(1, n + 1)
    x = ad.Tensor(rng.uniform(-1, 1, (n, n, in_dim)), requires_grad=True)
    w_x, w_h = (ad.Tensor(rng.uniform(-1, 1, (rows, 4 * hid)), requires_grad=True)
                for rows in (in_dim, hid))
    b = ad.Tensor(rng.uniform(-1, 1, (4 * hid,)), requires_grad=True)
    weights = rng.uniform(-1, 1, (n, n + 1, hid))
    weights[:, :n][np.arange(n) >= lengths[:, None]] = 0.0  # padded states are not read
    with ad.Tape() as tape:
        out = ad.lstm_seq(x, w_x, w_h, b, reverse=reverse, lengths=lengths)
        loss = ad.sum(ad.mul(out, ad.constant(weights)))
    got = tape.backward(loss, params=[x, w_x, w_h, b])

    want = {t: np.zeros_like(t.data) for t in (x, w_x, w_h, b)}
    for row, length in enumerate(lengths):
        x_row = ad.Tensor(x.data[row, :length], requires_grad=True)
        with ad.Tape() as tape:
            single = ad.lstm_seq(x_row, w_x, w_h, b, reverse=reverse)
            w_row = np.concatenate([weights[row, :length], weights[row, n:]])
            row_loss = ad.sum(ad.mul(single, ad.constant(w_row)))
        grads = tape.backward(row_loss, params=[x_row, w_x, w_h, b])
        np.testing.assert_allclose(out.data[row, :length], single.data[:length],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data[row, n], single.data[length], rtol=0, atol=1e-12)
        want[x][row, :length] = grads[x_row]
        for t in (w_x, w_h, b):
            want[t] += grads[t]
    for t in (x, w_x, w_h, b):
        np.testing.assert_allclose(got[t], want[t], rtol=0, atol=1e-12)


def test_lookup_gradient_matches_add_at():
    """The sorted reduceat accumulation against np.add.at, with repeated and
    absent rows, a single row, and a table of rank 3."""
    rng = np.random.default_rng(12)
    for shape, index_shape in (((50, 8), (512, 3)), ((6, 2, 3), (4, 5)), ((7, 3), (1,))):
        table = ad.Tensor(rng.normal(size=shape), requires_grad=True)
        ids = rng.integers(0, shape[0], size=index_shape)
        weights = rng.normal(size=index_shape + shape[1:])
        with ad.Tape() as tape:
            loss = ad.sum(ad.mul(ad.lookup(table, ids), ad.constant(weights)))
        got = tape.backward(loss)[table]
        want = np.zeros(shape)
        np.add.at(want, ids, weights)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
