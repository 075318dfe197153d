import gc
import itertools
import sys
import threading
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answergen import autodiff as ad
from answergen.errors import (
    NonFiniteGradientError,
    NonFiniteLossError,
    NonFiniteValueError,
    ShapeMismatchError,
    TapeConsumedError,
)
from answergen.training import Adam, clip_global_norm

from conftest import force_cpus


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


def test_matmul_over_leading_axes_and_stacks():
    """(..., K) @ (K, M), a layer over (T, B, .) rows; (B, K) @ (B, K, M),
    each row against its own matrix, as a context vector over a batch; and
    (B, K) @ (1, K, M), every row against one shared matrix, as beam rows
    read one example's encoder states. A vector b is refused."""
    rng = np.random.default_rng(3)
    a = ad.Tensor(rng.uniform(-1, 1, (2, 4, 3)), requires_grad=True)
    m = ad.Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
    np.testing.assert_allclose(ad.matmul(a, m).data, np.einsum("bnk,km->bnm", a.data, m.data),
                               atol=1e-15)
    rows = ad.Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
    np.testing.assert_allclose(ad.matmul(rows, a).data, np.einsum("bn,bnk->bk", rows.data, a.data),
                               atol=1e-15)
    beam = ad.Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
    shared = ad.Tensor(rng.uniform(-1, 1, (1, 4, 3)), requires_grad=True)
    np.testing.assert_array_equal(ad.matmul(beam, shared).data, beam.data @ shared.data[0])
    for x, y in ((a, m), (rows, a), (beam, shared)):
        report = ad.gradient_check(lambda: _scalarize(ad.matmul(x, y), np.random.default_rng(0)),
                                   [x, y], eps=1e-5)
        assert not report.flagged, report
    for x, y in ((a, ad.constant(np.ones((2, 2)))), (ad.constant(np.ones((3, 4))), a),
                 (a, ad.constant(np.ones(3))), (beam, a)):
        with pytest.raises(ShapeMismatchError):
            ad.matmul(x, y)


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


def test_unreached_parameter_gets_a_zero_gradient():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    unused = ad.Tensor([5.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum(x)
    gm = tape.backward(loss, params=[x, unused])
    np.testing.assert_array_equal(gm[unused], [0.0])
    assert gm.squares[unused] == 0.0


def test_loss_must_be_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ShapeMismatchError):
        tape.backward(y)


def test_log_of_nonpositive_is_an_error():
    with pytest.raises(NonFiniteValueError):
        ad.log(ad.constant([1.0, 0.0]))


@pytest.mark.parametrize("kind", ["add", "mul", "minimum", "maximum"])
def test_elementwise_shapes_that_do_not_broadcast(kind):
    with pytest.raises(ShapeMismatchError) as exc:
        ad.PRIMITIVES[kind](ad.constant(np.ones((2, 3))), ad.constant(np.ones(4)))
    assert str(exc.value) == f"{kind}: shapes (2, 3) and (4,) do not broadcast"


def test_gradient_check_flags_a_loss_that_overflows():
    """No primitive checks its output, so a loss that overflows reaches the
    finite differences as inf - inf; that is a failed check, not error 0."""
    x = ad.Tensor([1e308], requires_grad=True)
    with np.errstate(over="ignore"):
        report = ad.gradient_check(lambda: ad.sum(ad.mul(x, ad.constant([10.0]))), [x])
    assert report.flagged
    assert report.max_rel_error == np.inf and report.worst == (0, 0)


def test_a_primitive_outside_a_tape_passes_nan_through():
    """Finiteness is checked at the boundaries, not per primitive: a NaN
    written into a tensor after construction comes out as NaN."""
    x = ad.constant([1.0, 2.0])
    x.data[0] = np.nan
    y = ad.softmax(ad.tanh(ad.add(ad.mul(x, x), ad.constant(1.0))))
    assert np.isnan(y.data).all()
    z = ad.matmul(x, ad.constant(np.ones((2, 2))))
    assert np.isnan(z.data).all()


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
        a_shape, b_shape = [((2, 3), (3, 2)), ((3,), (3, 2)), ((2, 3), (2, 3, 2)),
                            ((2, 3), (1, 3, 2))][shapes]
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
    if kind in ("tanh", "softmax"):
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
        rows, n, in_dim, hid = (int(v) for v in rng.integers(1, [3, 6, 4, 4]))
        x = ad.Tensor(rng.uniform(-1, 1, (rows, n, in_dim)), requires_grad=True)
        w_x, w_h = (ad.Tensor(rng.uniform(-1, 1, (k, 4 * hid)), requires_grad=True)
                    for k in (in_dim, hid))
        b = ad.Tensor(rng.uniform(-1, 1, (4 * hid,)), requires_grad=True)
        reverse = bool(rng.integers(2))
        # half the trials start from a drawn state, as a decoder step does
        state = None
        if rng.integers(2):
            state = tuple(ad.Tensor(rng.uniform(-1, 1, (rows, hid)), requires_grad=True)
                          for _ in range(2))
        # _scalarize weights every state row and the final cell row
        return (lambda: _scalarize(ad.lstm_seq(x, w_x, w_h, b, reverse=reverse, state=state),
                                   np.random.default_rng(0))), [x, w_x, w_h, b, *(state or ())]
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
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = ad.Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    report = ad.gradient_check(lambda: ad.sum(ad.tanh(ad.matmul(x, w))), [w, x], eps=1e-5)
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


@pytest.mark.parametrize("x_shape, state_shape", [((1, 4, 3), (1, 3)), ((2, 4, 3), (2,)),
                                                  ((2, 4, 3), (3, 2))])
def test_lstm_seq_state_must_match_the_rows(x_shape, state_shape):
    """A state is (B, H) for a batch of B sequences."""
    w_x, w_h, b = (ad.constant(np.zeros(shape)) for shape in ((3, 8), (2, 8), (8,)))
    state = (ad.constant(np.zeros(state_shape)), ad.constant(np.zeros(state_shape)))
    with pytest.raises(ShapeMismatchError):
        ad.lstm_seq(ad.constant(np.zeros(x_shape)), w_x, w_h, b, state=state)


def test_lstm_seq_refuses_an_unbatched_sequence():
    """x is (B, N, in); one sequence runs as a batch of one."""
    w_x, w_h, b = (ad.constant(np.zeros(shape)) for shape in ((3, 8), (2, 8), (8,)))
    with pytest.raises(ShapeMismatchError):
        ad.lstm_seq(ad.constant(np.zeros((4, 3))), w_x, w_h, b)
    assert ad.lstm_seq(ad.constant(np.zeros((1, 4, 3))), w_x, w_h, b).shape == (1, 5, 2)


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
        x_row = ad.Tensor(x.data[row:row + 1, :length], requires_grad=True)
        with ad.Tape() as tape:
            single = ad.lstm_seq(x_row, w_x, w_h, b, reverse=reverse)
            w_row = np.concatenate([weights[row, :length], weights[row, n:]])[None]
            row_loss = ad.sum(ad.mul(single, ad.constant(w_row)))
        grads = tape.backward(row_loss, params=[x_row, w_x, w_h, b])
        np.testing.assert_allclose(out.data[row, :length], single.data[0, :length],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data[row, n], single.data[0, length], rtol=0, atol=1e-12)
        want[x][row, :length] = grads[x_row][0]
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


# ---------------------------------------------------------------------------
# Gradient parts: weight factors, lookup rows, constants, unshared leaves.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("steps", [1, 2, 9])
@pytest.mark.parametrize("rank", [1, 8])
def test_weight_gradient_over_steps_is_the_sum_of_its_products(steps, rank):
    """A weight fed at every step gets the sum of each step's a.T @ g."""
    rng = np.random.default_rng(steps * 10 + rank)
    # a rank-1 pair is 22 entries of the 120 the product has, so rank-1
    # steps are kept and multiplied out in stacks; rank-8 pairs are not kept
    w = ad.Tensor(rng.normal(size=(12, 10)), requires_grad=True)
    xs = [rng.normal(size=(rank, 12)) for _ in range(steps)]
    cs = [rng.normal(size=(rank, 10)) for _ in range(steps)]
    with ad.Tape() as tape:
        terms = [ad.sum(ad.mul(ad.matmul(ad.constant(x), w), ad.constant(c)))
                 for x, c in zip(xs, cs)]
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
    got = tape.backward(loss)[w]
    want = np.zeros_like(w.data)
    for x, c in zip(xs, cs):
        want += x.T @ c
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_dense_factor_and_row_parts_of_one_tensor_add_up():
    """A table that is read by lookup, used as a matmul weight (by one row,
    whose factors are kept, and by three, whose product is formed at once)
    and scaled elementwise gets the sum of all parts. Small integers keep
    every sum exact, whatever order the parts arrive in."""
    rng = np.random.default_rng(21)
    table = ad.Tensor(rng.integers(-3, 4, size=(5, 4)).astype(float), requires_grad=True)
    ids = np.array([[4, 0], [4, 2]])
    x1, x3 = (rng.integers(-3, 4, size=(n, 5)).astype(float) for n in (1, 3))
    c_rows, c1, c3, c_dense = (rng.integers(-3, 4, size=s).astype(float)
                               for s in ((2, 2, 4), (1, 4), (3, 4), (5, 4)))

    def weighted(t, c):
        return ad.sum(ad.mul(t, ad.constant(c)))

    with ad.Tape() as tape:
        rows = weighted(ad.lookup(table, ids), c_rows)
        one = weighted(ad.matmul(ad.constant(x1), table), c1)
        dense = weighted(table, c_dense)
        three = weighted(ad.matmul(ad.constant(x3), table), c3)
        loss = ad.add(ad.add(ad.add(rows, one), dense), three)
    got = tape.backward(loss)[table]
    want = x1.T @ c1 + x3.T @ c3 + c_dense
    np.add.at(want, ids, c_rows)
    np.testing.assert_array_equal(got, want)


def test_backward_of_a_rank_one_chain_holds_one_weight_gradient():
    """Sixteen rank-1 products into one 512x512 weight are kept as factors
    and multiplied out once, so backward never holds a second weight-sized
    array."""
    rng = np.random.default_rng(5)
    w = ad.Tensor(rng.normal(scale=0.05, size=(512, 512)), requires_grad=True)
    h = ad.constant(rng.normal(size=(1, 512)))
    with ad.Tape() as tape:
        for _ in range(16):
            h = ad.tanh(ad.matmul(h, w))
        loss = ad.sum(h)
    tracemalloc.start()
    try:
        grads = tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grads[w].shape == w.shape
    assert peak < 2 * w.data.nbytes, peak / w.data.nbytes


@pytest.mark.parametrize("rows, kept", [(1, True), (2048, False)])
def test_factor_pairs_are_kept_only_while_smaller_than_their_product(rows, kept):
    """A (rows, 96) x (rows, 48) weight gradient is kept as factors when they
    are smaller than the 96x48 product and multiplied out on arrival when
    they are not, which releases the upstream gradient they refer to."""
    rng = np.random.default_rng(6)
    x = ad.Tensor(rng.normal(size=(rows, 96)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(96, 48)), requires_grad=True)
    upstream, alive = [], []

    def probe(t, grad_fn):
        return ad._record("probe", (t,), t.data.copy(), grad_fn)

    def note_upstream(g):
        upstream.append(weakref.ref(g))
        return [(y, g)]

    def check_released(g):
        alive.append(upstream[0]() is not None)
        return [(x, g)]

    with ad.Tape() as tape:
        a = ad.tanh(probe(x, check_released))  # swept last
        y = ad.matmul(a, w)
        loss = ad.sum(probe(y, note_upstream))
    grads = tape.backward(loss)
    assert alive == [kept]
    np.testing.assert_allclose(grads[w], np.tanh(x.data).T @ np.ones((rows, 48)), rtol=1e-12)


def test_leaves_sharing_a_gradient_array_count_once():
    """add hands one array to both of its inputs, and nothing writes a
    gradient after the sweep, so the two leaves may share it. Each counts
    once in the clip norm, and Adam updates both exactly as it would from
    separately allocated gradients; scaling the shared array in place, once
    per leaf, would scale it twice."""
    a, b = (ad.Tensor(np.ones(3), requires_grad=True) for _ in range(2))
    with ad.Tape() as tape:
        loss = ad.sum(ad.add(a, b))
    gm = tape.backward(loss)
    norm, scale = clip_global_norm([gm.squares[a], gm.squares[b]], 1.0)
    assert norm == np.sqrt(6.0) and scale == 1.0 / np.sqrt(6.0)
    params = {"a": a, "b": b}
    separate = {name: ad.Tensor(np.ones(3)) for name in params}
    Adam(params, lr=0.1).step({"a": gm[a], "b": gm[b]}, scale)
    Adam(separate, lr=0.1).step({name: np.ones(3) for name in params}, scale)
    for name in params:
        np.testing.assert_array_equal(params[name].data, separate[name].data)
    np.testing.assert_array_equal(gm[a], np.ones(3))
    np.testing.assert_array_equal(gm[b], np.ones(3))


def _gradient_of(x: ad.Tensor, grad: np.ndarray) -> ad.GradientMap:
    """Backward through a node whose grad_fn hands ``x`` the gradient ``grad``."""
    with ad.Tape() as tape:
        loss = ad.sum(ad._record("probe", (x,), x.data.copy(), lambda g: [(x, grad)]))
    return tape.backward(loss)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_leaf_gradient_entry_raises(bad):
    grad = np.ones(100_000)
    grad[61_803] = bad
    with pytest.raises(NonFiniteGradientError, match="wide"):
        _gradient_of(ad.Tensor(np.ones(100_000), requires_grad=True, name="wide"), grad)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_finite_leaf_gradient_whose_square_overflows_passes():
    x = ad.Tensor(np.ones(1000), requires_grad=True)
    gm = _gradient_of(x, np.full(1000, 1e200))
    assert gm.squares[x] == np.inf
    np.testing.assert_array_equal(gm[x], np.full(1000, 1e200))


def test_finite_leaf_gradients_are_not_read_by_isfinite(monkeypatch):
    """The leaf check reads each gradient once, as its sum of squares;
    np.isfinite runs only when that sum is not finite."""
    rng = np.random.default_rng(5)
    table = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    bias = ad.Tensor(rng.normal(size=3), requires_grad=True)
    unused = ad.Tensor(np.ones(2), requires_grad=True)
    with ad.Tape() as tape:
        h = ad.tanh(ad.add(ad.matmul(ad.lookup(table, np.array([0, 2, 2, 5])), w), bias))
        loss = ad.sum(ad.mul(h, h))
    calls = []
    isfinite = np.isfinite

    def counted(*args, **kwargs):
        calls.append(1)
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    gm = tape.backward(loss, params=[table, w, bias, unused])
    assert calls == []
    for t in (table, w, bias):
        flat = gm[t].reshape(-1)
        assert gm.squares[t] == float(flat @ flat) > 0
    assert gm.squares[unused] == 0.0


# (primitive, input shapes) for each primitive with more than one input
# and each of matmul's three cases
_MULTI_INPUT_CASES = {
    "add": (ad.add, [(2, 3), (2, 3)]),
    "mul": (ad.mul, [(2, 3), (2, 3)]),
    "minimum": (ad.minimum, [(2, 3), (2, 3)]),
    "maximum": (ad.maximum, [(2, 3), (2, 3)]),
    "matmul": (ad.matmul, [(2, 3), (3, 4)]),
    "matmul_per_row": (ad.matmul, [(2, 3), (2, 3, 4)]),
    "matmul_shared_stack": (ad.matmul, [(2, 3), (1, 3, 4)]),
    "additive_scores": (ad.additive_scores, [(3, 4), (4,), (4,)]),
}


@pytest.mark.parametrize("kind", sorted(_MULTI_INPUT_CASES))
def test_no_gradient_is_computed_for_a_constant_input(kind):
    """With one input tracked and the others constant, the grad_fn returns
    None in place of each constant's gradient."""
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    make, shapes = _MULTI_INPUT_CASES[kind]
    for tracked in range(len(shapes)):
        inputs = [ad.Tensor(rng.normal(size=s), requires_grad=(i == tracked))
                  for i, s in enumerate(shapes)]
        with ad.Tape() as tape:
            out = make(*inputs)
        node = tape.nodes[-1]
        parts = node.grad_fn(np.ones_like(out.data))
        for i, (inp, part) in enumerate(parts):
            assert inp is inputs[i]
            assert (part is None) == (i != tracked), (kind, i, tracked)


# ---------------------------------------------------------------------------
# Large leaves finished on the helper thread.
# ---------------------------------------------------------------------------

BIG = (512, ad.HANDOFF_SIZE // 512)  # a leaf of exactly HANDOFF_SIZE entries


def _on_helper() -> bool:
    return threading.current_thread() is not threading.main_thread()


def _probe(x: ad.Tensor, before) -> ad.Tensor:
    """A node that passes its gradient through after calling ``before()``."""
    return ad._record("probe", (x,), x.data.copy(), lambda g: before() or [(x, g)])


class HelperWatch:
    """Wraps `_finish` and the helper's executor: records the thread each
    leaf is finished on, counts executors made, and sets ``started`` when the
    helper begins its first leaf. ``fail`` makes the helper raise there."""

    def __init__(self, monkeypatch, fail=False):
        self.started = threading.Event()
        self.threads: list[bool] = []  # per finished leaf: on the helper
        self.executors = 0
        finish, executor = ad._finish, ad.ThreadPoolExecutor

        def watched_finish(*job):
            self.threads.append(_on_helper())
            if _on_helper():
                self.started.set()
                if fail:
                    raise RuntimeError("helper failed")
            return finish(*job)

        def counted_executor(*args):
            self.executors += 1
            return executor(*args)

        monkeypatch.setattr(ad, "_finish", watched_finish)
        monkeypatch.setattr(ad, "ThreadPoolExecutor", counted_executor)

    def wait(self):
        """Hold the sweep until the helper has begun a leaf."""
        assert self.started.wait(timeout=30)


def handoff_tape(wait=lambda: None):
    """Record a loss over six leaves of ``HANDOFF_SIZE`` entries and two
    smaller ones. ``table`` is read by the first node, so it is complete only
    at the sweep's end, and it gets lookup rows (an owned buffer) and held
    factors; ``w_both`` gets held factors and a dense part it does not own;
    ``a`` and ``b`` share the one array ``add`` hands them; ``w_mid`` is
    completed mid-sweep by a first reader whose output has no gradient,
    after which the sweep calls ``wait``; ``w_off`` is read only off the
    loss's path, so it gets no gradient. ``w_small`` and ``bias`` stay under
    the size rule."""
    rng = np.random.default_rng(11)
    leaves = {name: ad.Tensor(rng.normal(size=BIG) * 0.05, requires_grad=True, name=name)
              for name in ("table", "w_both", "w_mid", "w_off", "a", "b")}
    leaves["w_small"] = ad.Tensor(rng.normal(size=(BIG[1], 8)), requires_grad=True)
    leaves["bias"] = ad.Tensor(rng.normal(size=BIG[1]), requires_grad=True)
    t = leaves
    with ad.Tape() as tape:
        x = ad.lookup(t["table"], np.array([3, 7, 7, 500]))
        h = ad.tanh(ad.add(ad.matmul(x, t["w_both"]), t["bias"]))
        h = _probe(h, wait)
        ad.matmul(h, t["w_mid"]), ad.matmul(h, t["w_off"])  # off the loss's path
        h = ad.tanh(ad.matmul(h, t["w_mid"]))
        m = ad.mul(t["w_both"], ad.add(t["a"], t["b"]))
        q = ad.add(ad.matmul(h, t["table"]), ad.sum(ad.matmul(h, t["w_small"])))
        loss = ad.add(ad.sum(ad.mul(q, q)), ad.sum(ad.mul(m, m)))
    return leaves, tape, loss


def test_the_handoff_tape_completes_its_leaves_where_it_says():
    leaves, tape, _ = handoff_tape()
    firsts = {name: tape.first_reads[t] for name, t in leaves.items() if t in tape.first_reads}
    assert set(firsts) == {"table", "w_both", "w_mid", "w_off", "a", "b"}
    assert firsts["table"] == 0 and firsts["a"] == firsts["b"]
    assert 0 < firsts["w_mid"] < len(tape.nodes) // 2


def test_large_leaves_finished_on_the_helper_equal_the_serial_sweep(monkeypatch):
    """On one, two and three CPUs, every gradient and sum of squares is byte
    for byte that of the serial reference: the same tape with no leaf large
    enough to hand off, each finished after the sweep on the calling thread.
    One CPU starts no helper; two or three start one, which finishes at
    least the leaf it began while the sweep waited. Each count runs at the
    default thread switch interval and at one of a microsecond."""
    def backward(cpus, handoff_size=ad.HANDOFF_SIZE):
        monkeypatch.undo()
        force_cpus(monkeypatch, cpus)
        monkeypatch.setattr(ad, "HANDOFF_SIZE", handoff_size)
        watch = HelperWatch(monkeypatch)
        leaves, tape, loss = handoff_tape(watch.wait if cpus > 1 else lambda: None)
        return leaves, tape.backward(loss), watch

    ref_leaves, ref, _ = backward(1, handoff_size=ad.HANDOFF_SIZE * 64)
    assert np.shares_memory(ref[ref_leaves["a"]], ref[ref_leaves["b"]])
    interval = sys.getswitchinterval()
    for cpus, switch in itertools.product((1, 2, 3), (interval, 1e-6)):
        sys.setswitchinterval(switch)
        try:
            leaves, gm, watch = backward(cpus)
        finally:
            sys.setswitchinterval(interval)
        assert watch.executors == (cpus > 1) and len(watch.threads) == 5
        assert any(watch.threads) == (cpus > 1)
        reached = [name for name in leaves if name != "w_off"]
        assert list(gm.grads) == list(gm.squares)
        assert set(gm.grads) == {leaves[name] for name in reached}
        assert set(ref.grads) == {ref_leaves[name] for name in reached}
        for name in reached:
            got, expected = leaves[name], ref_leaves[name]
            assert gm[got].tobytes() == ref[expected].tobytes(), (cpus, name)
            assert gm.squares[got].hex() == ref.squares[expected].hex(), (cpus, name)
        assert np.shares_memory(gm[leaves["a"]], gm[leaves["b"]])


def helper_tape(wait, fail_in_sweep=False, nan_in_big=False):
    """``early`` is read by the first node; ``big``'s first reader is swept
    before a probe that calls ``wait`` and then raises if ``fail_in_sweep``.
    ``nan_in_big`` puts a NaN in big's data before the forward pass."""
    rng = np.random.default_rng(12)
    big, early = (ad.Tensor(rng.normal(size=BIG) * 0.05, requires_grad=True, name=name)
                  for name in ("big", "early"))
    if nan_in_big:
        big.data[5, 9] = np.nan

    def before():
        wait()
        if fail_in_sweep:
            raise RuntimeError("grad_fn failed")

    with ad.Tape() as tape:
        h = _probe(ad.matmul(ad.constant(rng.normal(size=(2, BIG[0]))), early), before)
        y = ad.matmul(h, big)
        loss = ad.sum(ad.mul(y, y))
    return big, tape, loss


def test_backward_leaves_no_thread_running(monkeypatch):
    force_cpus(monkeypatch, 2)
    watch = HelperWatch(monkeypatch)
    before = threading.active_count()
    big, tape, loss = helper_tape(watch.wait)
    gm = tape.backward(loss)
    assert threading.active_count() == before
    assert watch.executors == 1 and watch.threads[0] and np.isfinite(gm.squares[big])


def test_backward_leaves_no_thread_running_after_a_grad_fn_raises(monkeypatch):
    force_cpus(monkeypatch, 2)
    watch = HelperWatch(monkeypatch)
    before = threading.active_count()
    _, tape, loss = helper_tape(watch.wait, fail_in_sweep=True)
    with pytest.raises(RuntimeError, match="grad_fn failed"):
        tape.backward(loss)
    assert threading.active_count() == before
    assert watch.executors == 1 and watch.threads == [True]


def test_a_non_finite_gradient_the_helper_finishes_raises_after_the_join(monkeypatch):
    force_cpus(monkeypatch, 2)
    watch = HelperWatch(monkeypatch)
    before = threading.active_count()
    _, tape, loss = helper_tape(watch.wait, nan_in_big=True)
    with pytest.raises(NonFiniteGradientError, match="big"):
        tape.backward(loss)
    assert threading.active_count() == before
    assert watch.executors == 1 and watch.threads[0]


def test_a_helper_exception_reaches_the_caller(monkeypatch):
    force_cpus(monkeypatch, 2)
    watch = HelperWatch(monkeypatch, fail=True)
    before = threading.active_count()
    _, tape, loss = helper_tape(watch.wait)
    with pytest.raises(RuntimeError, match="helper failed"):
        tape.backward(loss)
    assert threading.active_count() == before
    assert watch.executors == 1 and watch.threads[0]
