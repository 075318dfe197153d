"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Operations record TapeNodes while a Tape is active (see `Tape.__enter__`);
outside a tape they just compute, which is what generation-time code uses.
A tape can be walked backward exactly once. A tape and the tensors it
records belong to the thread that records them; distinct tapes are
independent. Threads start in this module alone, and only on a CPU that
``spare_cpus``, the package's one probe, finds spare: ``in_parallel`` forks
independent calls (``bidirectional_lstm``'s two directions, whose values
and grad_fns are recorded by the calling thread alone; a wide weight's two
column halves in ``matmul``, recorded as one node; Adam's shares; backward's
sweep and the drain that finishes the large leaves it queues).

Backward builds each tensor's gradient in one place from the parts the
grad_fns hand out, of three kinds:

- a dense array, added into the tensor's running sum;
- ``Factors(a, g)``, a matmul's weight gradient aᵀg kept as its (R, K)
  input rows and (R, N) output-gradient rows. A weight fed at every decoder
  step collects one pair per step, and they are multiplied out together, as
  one GEMM over the stacked rows, once the gradient is needed. Size rule:
  pairs are kept only while their total size stays below the K×N product
  they stand for; the pair that would reach it is multiplied out with the
  kept ones at once, so kept factors never outgrow the dense gradient;
- ``Rows(index, rows)``, a lookup's gradient, nonzero only at the rows it
  read. The first such part of a tensor with no gradient yet becomes that
  gradient through one ``np.bincount`` over flat (row, column) indices; a
  later one is added in by ``np.add.at``. Both add in index order, so the
  sums are bit for bit those of ``np.add.at`` into zeros.

A gradient is complete when the node that produced its tensor is popped
(intermediates), or when the first node that reads it is popped (leaves):
later nodes come earlier in the sweep. `_gradient` then multiplies its held
factors out into a fresh array and adds its dense array in. A leaf of at
least ``HANDOFF_SIZE`` entries is queued at that point for the second call
of `in_parallel`, which finishes it (adds it up and takes its sum of
squares) while the sweep goes on; every other leaf is finished on the spot.
Each product, sum and square is the same call on the same arrays on any
thread, so the results are bit for bit those of one thread.

The grad_fns of ``add``, ``mul``, ``matmul``, ``minimum``, ``maximum`` and
``additive_scores`` return None instead of a part for an input that is
neither ``requires_grad`` nor on a tape, so they compute no gradient of a
constant.

Finiteness is checked at the boundaries, not per primitive. Finite inputs
stay finite through every primitive except ``log`` (of 0 or a negative) and
overflow, and a NaN or inf reaches every output computed from it, so one
check, `finite`, where values enter or leave catches it: ``Tensor``
construction, ``log``'s output, the training loss, each leaf gradient's sum
of squares after ``Tape.backward`` (the entries are read only when that sum
is not finite), and (outside this module) restored checkpoint weights and
each beam-search step's distributions. A primitive outside a tape simply
computes, NaN in, NaN out.

Aliasing rule: an output may share memory with its input (``reshape``
returns a view), so no code writes into a recorded tensor's data before its
tape is walked; a fresh untaped output, such as beam search's softmax, is
its reader's to change.
"""
from __future__ import annotations

import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    NonFiniteGradientError,
    NonFiniteValueError,
    ShapeMismatchError,
    TapeConsumedError,
)

_STATE = threading.local()  # .tape: this thread's active tape, unset outside Tape blocks

# Leaves of at least this many entries (2 MiB) are finished by backward's
# drain beside the sweep; a bidirectional LSTM whose w_h is this large runs
# its two directions `in_parallel`; and `matmul` computes a 2-D weight whose
# two column halves each have this many entries as those halves,
# `in_parallel`. The largest leaf of a desk model with a 512-word vocabulary
# has 82K entries, so its backward stays on one thread; its encoders' w_h
# (32 x 128) are far below, a full-dims one (256 x 1024) at it. At full dims
# only the vocabulary head (1280 x |V|) has two such halves; init.w_h and
# init.w_c (1024 x 256) stay whole.
HANDOFF_SIZE = 1 << 18


def spare_cpus() -> int:
    """How many CPUs this process may run on besides the calling thread's."""
    return len(os.sched_getaffinity(0)) - 1


def in_parallel(calls: Sequence[Callable[[], object]]) -> list:
    """Each call's result, in call order. With two calls or more and a spare
    CPU, the first runs on the calling thread and the rest on an executor of
    ``len(calls) - 1`` workers, else all run in turn on the calling thread.
    Every call has ended before this returns or raises the first exception
    in call order."""
    if len(calls) < 2 or not spare_cpus():
        return [call() for call in calls]
    with ThreadPoolExecutor(len(calls) - 1) as pool:
        later = [pool.submit(call) for call in calls[1:]]
        return [calls[0]()] + [future.result() for future in later]


def finite(x: np.ndarray, message: str, *args,
           error: type[Exception] = NonFiniteValueError) -> np.ndarray:
    """``x``, once no entry is NaN or infinite; else raises ``error`` with
    ``message.format(*args)``, formatted only then."""
    if not np.isfinite(x).all():
        raise error(message.format(*args))
    return x


def active_tape() -> "Tape | None":
    return getattr(_STATE, "tape", None)


class Tensor:
    """Dense row-major float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "name", "_tape")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = finite(np.asarray(data, dtype=np.float64),
                           "tensor {} initialized with non-finite data", name or "")
        self.requires_grad = requires_grad
        self.name = name
        self._tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _tracked(t: Tensor) -> bool:
    """True when ``t`` may need a gradient: a leaf that asks for one or the
    output of a recorded node. A grad_fn skips the gradient of any other."""
    return t.requires_grad or t._tape is not None


class Factors(NamedTuple):
    """The weight gradient ``a.T @ g`` of ``rows @ weight``, not multiplied
    out: ``a`` (R, K) holds the input rows and ``g`` (R, N) the gradient rows
    of the output."""
    a: np.ndarray
    g: np.ndarray


class Rows(NamedTuple):
    """A lookup's gradient: ``rows[i]`` belongs to table row ``index[i]``,
    where ``index`` is an intp array of any shape (a 0-d one takes one row);
    every other row's gradient is zero."""
    index: np.ndarray
    rows: np.ndarray


@dataclass
class TapeNode:
    """One recorded primitive application.

    grad_fn maps the output gradient to (input, part) pairs, where a part is
    a dense array, ``Factors``, ``Rows`` or None (see the module docstring).
    """
    op_kind: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    grad_fn: Callable[[np.ndarray], list[tuple[Tensor, "np.ndarray | Factors | Rows | None"]]]


@dataclass
class GradientMap:
    """Result of a backward pass, keyed by tensor identity: each leaf's
    gradient and the sum of its squared entries."""
    grads: dict[Tensor, np.ndarray]
    squares: dict[Tensor, float]

    def __getitem__(self, t: Tensor) -> np.ndarray:
        return self.grads[t]


class Tape:
    """Execution-ordered record of primitive applications.

    Nodes are appended in forward order, so every node's inputs precede it
    and a single reverse sweep is a valid topological order. The sweep
    removes each node as it goes, so ``nodes`` is empty after backward().

    Within its ``with`` block a tape is this thread's active tape; blocks
    nest, and leaving one makes the tape it was entered under active again.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.consumed = False
        self._outer: "Tape | None" = None  # the active tape this block was entered under

    def __enter__(self) -> "Tape":
        self._outer = active_tape()
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, *exc):
        assert active_tape() is self, "Tape blocks must exit in the order they were entered"
        _STATE.tape, self._outer = self._outer, None
        if exc_type is not None:
            # No backward will sweep this tape, and its outputs refer back to
            # it: drop the nodes so the graph is freed by reference counting.
            self.nodes.clear()
        return False

    def backward(self, loss: Tensor, params: Iterable[Tensor] | None = None) -> GradientMap:
        """Accumulate d(loss)/d(leaf) for every tracked leaf tensor.

        One sweep, newest node first. Each tensor's gradient is assembled in
        one place from its parts (see the module docstring) and finished by
        `_gradient` once complete: an intermediate's when its producer node
        is popped, a leaf's when the first node that reads it is popped. Two
        leaves may share one array (``add`` hands its gradient to both
        inputs), so a caller must not write a gradient in place.

        A complete leaf is finished on the spot, or, from ``HANDOFF_SIZE``
        entries on, queued for the second call of `in_parallel([sweep,
        drain])`, which finishes queued leaves while the sweep goes on; the
        calling thread drains the queue too once the sweep ends. The results
        are bit for bit those of one thread, in the order the sweep
        completed the leaves.

        ``params``, when given, lists tensors the caller cares about; any of
        them not reached by the sweep get a zero gradient and a square sum of
        0 rather than raising.

        Each leaf gradient's sum of squares is taken once, as one dot
        product, and returned in ``squares`` (a clip norm sums them). A NaN
        or inf entry makes that sum NaN or inf, and only then are the
        entries read, raising NonFiniteGradientError (on which a train step
        skips its update) unless all are finite and the sum merely
        overflowed. A finite forward can still make a non-finite gradient,
        by overflow in a grad_fn, and a caller that compares gradient errors
        with ``>`` would pass a NaN silently, so the check stays here.
        """
        if self.consumed:
            raise TapeConsumedError("tape already consumed by a previous backward()")
        self.consumed = True
        if loss.data.size != 1:
            raise ShapeMismatchError(f"loss must be scalar, got shape {loss.shape}")

        # leaf -> index of the first node that reads it; a leaf loss is
        # complete before the sweep pops any node
        first = {loss: len(self.nodes)} if loss.requires_grad else {}
        for i, node in enumerate(self.nodes):
            for t in node.inputs:
                if t.requires_grad:
                    first.setdefault(t, i)
        readers: dict[int, list[Tensor]] = {}
        for t, i in first.items():
            readers.setdefault(i, []).append(t)
        large = any(t.data.size >= HANDOFF_SIZE for t in first)
        sums = _GradientSums()
        queued = queue.SimpleQueue()
        # leaf -> (gradient, sum of squares), in the order the sweep completed
        # the leaves: a queued leaf holds its place with None
        finished: dict[Tensor, "tuple[np.ndarray, float] | None"] = {}

        def drain():
            while (job := queued.get()) is not None:
                finished[job[0]] = _finish(*job[1:])

        def complete(i: int) -> None:
            for t in readers.get(i, ()):
                pairs, dense = sums.pop(t)
                if pairs is None and dense is None:
                    continue
                if t.data.size >= HANDOFF_SIZE:
                    finished[t] = None
                    queued.put((t, pairs, dense))
                else:
                    finished[t] = _finish(pairs, dense)

        def sweep():
            try:
                sums.receive(loss, np.ones_like(loss.data))
                complete(len(self.nodes))
                while self.nodes:
                    # Popping releases each node once it is used. Outputs
                    # refer to the tape and the tape to its nodes, so a tape
                    # that kept its nodes would leave the whole graph to the
                    # cyclic garbage collector.
                    node = self.nodes.pop()
                    pairs, dense = sums.pop(node.output)
                    if pairs is not None or dense is not None:
                        g = _gradient(pairs, dense)
                        assert g.shape == node.output.data.shape
                        for inp, part in node.grad_fn(g):
                            if part is not None and (inp.requires_grad or inp._tape is self):
                                sums.receive(inp, part)
                    complete(len(self.nodes))
            finally:
                for _ in range(1 + large):  # one end marker per drainer
                    queued.put(None)
            drain()

        in_parallel([sweep, drain] if large else [sweep])
        grads, squares = {}, {}
        for t, (g, square) in finished.items():
            if not math.isfinite(square):
                finite(g, "non-finite gradient for {}", t.name or t.shape,
                       error=NonFiniteGradientError)
            grads[t], squares[t] = g, square
        if params is not None:
            for p in params:
                if p not in grads:
                    grads[p], squares[p] = np.zeros_like(p.data), 0.0
        return GradientMap(grads, squares)


class _GradientSums:
    """The gradients one backward sweep is assembling, one per tensor."""

    def __init__(self):
        self.dense: dict[Tensor, np.ndarray] = {}
        # Tensors whose dense array this sweep allocated itself. Only those
        # are added into in place: an array a grad_fn returned may be shared
        # with another input or with the output gradient it was given.
        self.owned: set[Tensor] = set()
        # Factor pairs not yet multiplied out, with their total size.
        self.held: dict[Tensor, tuple[int, list[Factors]]] = {}

    def receive(self, t: Tensor, part) -> None:
        """Take one part of ``t``'s gradient: dense, ``Factors`` or ``Rows``."""
        kind = type(part)
        if kind is Factors:
            size, pairs = self.held.pop(t, (0, []))
            size += part.a.size + part.g.size
            pairs.append(part)
            if size < part.a.shape[1] * part.g.shape[1]:
                self.held[t] = (size, pairs)
            else:
                self._add(t, _multiply_out(pairs), fresh=True)
        elif kind is Rows:
            if t in self.dense:
                np.add.at(self._buffer(t), part.index, part.rows)
            else:
                self._add(t, _rows_gradient(t.shape, part), fresh=True)
        else:
            self._add(t, part, fresh=False)

    def pop(self, t: Tensor) -> "tuple[list[Factors] | None, np.ndarray | None]":
        """Remove ``t``'s held factor pairs and dense array, each None if it
        has none, for `_gradient` to combine."""
        self.owned.discard(t)
        return self.held.pop(t, (0, None))[1], self.dense.pop(t, None)

    def _add(self, t: Tensor, g: np.ndarray, fresh: bool) -> None:
        """Add a dense part; a ``fresh`` one was allocated for this sweep and
        may become ``t``'s array or be added into."""
        seen = self.dense.get(t)
        if seen is None:
            self.dense[t] = g
            if fresh:
                self.owned.add(t)
        else:
            out = seen if t in self.owned else g if fresh else None
            self.dense[t] = np.add(seen, g, out=out)
            self.owned.add(t)

    def _buffer(self, t: Tensor) -> np.ndarray:
        """``t``'s dense array, copied into one this sweep owns if it is not yet."""
        if t not in self.owned:
            self.dense[t] = np.array(self.dense[t])
            self.owned.add(t)
        return self.dense[t]


def _rows_gradient(shape: tuple[int, ...], part: Rows) -> np.ndarray:
    """``np.add.at`` of one lookup's rows into zeros of ``shape``, as one
    ``np.bincount`` over flat (row, column) indices: the same additions in
    the same order. Negative indices wrap, as in the lookup."""
    width = math.prod(shape[1:])
    index = part.index.reshape(-1, 1) % shape[0]
    flat = (index * width + np.arange(width)).reshape(-1)
    sums = np.bincount(flat, weights=part.rows.reshape(-1), minlength=shape[0] * width)
    return sums.astype(np.float64, copy=False).reshape(shape)  # an empty index counts in ints


def _gradient(pairs: "list[Factors] | None", dense: "np.ndarray | None") -> np.ndarray:
    """A complete gradient: its factor pairs multiplied out into a fresh
    array with its dense array added in, or the one of the two it has."""
    if pairs is None:
        return dense
    product = _multiply_out(pairs)
    return product if dense is None else np.add(dense, product, out=product)


def _finish(pairs: "list[Factors] | None", dense: "np.ndarray | None") -> tuple[np.ndarray, float]:
    """A complete leaf's gradient and the sum of its squared entries, as one
    dot product."""
    g = _gradient(pairs, dense)
    flat = g.reshape(-1)
    return g, float(flat @ flat)


def _multiply_out(pairs: list[Factors]) -> np.ndarray:
    """The sum of ``a.T @ g`` over the pairs, as one product of their
    stacked rows."""
    if len(pairs) == 1:
        a, g = pairs[0]
    else:
        a = np.concatenate([p.a for p in pairs])
        g = np.concatenate([p.g for p in pairs])
    # one row's product is an outer product, which numpy writes faster than
    # a GEMM of inner extent 1
    return np.outer(a, g) if a.shape[0] == 1 else a.T @ g


# ---------------------------------------------------------------------------
# Primitives. Each computes with numpy and records a TapeNode when a tape is
# active and an input is tracked. Outputs are not checked for finiteness
# (see the module docstring).
# ---------------------------------------------------------------------------

def _record(kind: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, grad_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = False
    out.name = None
    out._tape = None
    tape = active_tape()
    if tape is None:
        return out
    for t in inputs:
        if t.requires_grad or t._tape is tape:
            out._tape = tape
            tape.nodes.append(TapeNode(kind, inputs, out, grad_fn))
            break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _broadcast(ufunc, a: Tensor, b: Tensor, kind: str) -> np.ndarray:
    """``ufunc(a, b)``, with numpy's broadcast failure raised as a
    ShapeMismatchError."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ShapeMismatchError(
            f"{kind}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast(np.add, a, b, "add")

    def grad_fn(g):
        return [(a, _unbroadcast(g, a.shape) if _tracked(a) else None),
                (b, _unbroadcast(g, b.shape) if _tracked(b) else None)]

    return _record("add", (a, b), out, grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast(np.multiply, a, b, "mul")

    def grad_fn(g):
        return [(a, _unbroadcast(g * b.data, a.shape) if _tracked(a) else None),
                (b, _unbroadcast(g * a.data, b.shape) if _tracked(b) else None)]

    return _record("mul", (a, b), out, grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Rows times a matrix: a (..., K) @ b (K, N) gives (..., N). Rows times
    a stack of matrices, a (B, K) @ b (B, K, N), gives (B, N), one row per
    matrix; a (1, K, N) stack is one matrix shared by all B rows, as beam
    rows read one example's encoder states.

    A 2-D b whose two column halves each have ``HANDOFF_SIZE`` entries (at
    full dims the vocabulary head alone) is multiplied as those halves,
    `in_parallel`, and the two products are joined: the product is bound by
    the memory bandwidth of reading b, and two cores read it faster. The
    first half is the largest multiple of 64 columns not past N / 2, which
    keeps BLAS's column blocks where the single product has them. So cut,
    the halves equal the one GEMM bit for bit on OpenBLAS 0.3.31's Haswell
    kernel at 1 and 2 BLAS threads, while a cut at N // 2 (2,500 of 5,000)
    did not. One node is recorded, on the calling thread, either way."""
    ad, bd = a.data, b.data
    per_row = ad.ndim == 2 and bd.ndim == 3
    if not per_row and (ad.ndim < 1 or bd.ndim != 2):
        raise ShapeMismatchError(f"matmul: ranks {ad.ndim} and {bd.ndim} unsupported")
    k = ad.shape[-1]
    if bd.shape[-2] != k or (per_row and bd.shape[0] not in (1, ad.shape[0])):
        raise ShapeMismatchError(f"matmul: inner dims {ad.shape} @ {bd.shape}")
    if per_row:
        out = ad @ bd[0] if bd.shape[0] == 1 else np.matmul(ad[:, None, :], bd)[:, 0, :]
    else:  # all rows at once, whatever the leading axes
        rows, cut = ad.reshape(-1, k), bd.shape[1] // 128 * 64
        if k * cut < HANDOFF_SIZE:
            out = rows @ bd
        else:
            out = np.concatenate(in_parallel([partial(np.matmul, rows, bd[:, :cut]),
                                              partial(np.matmul, rows, bd[:, cut:])]), axis=1)
        out = out.reshape(ad.shape[:-1] + bd.shape[1:])

    def grad_fn(g):
        need_a, need_b = _tracked(a), _tracked(b)
        if per_row:
            return [(a, np.matmul(bd, g[:, :, None])[:, :, 0] if need_a else None),
                    (b, _unbroadcast(ad[:, :, None] * g[:, None, :], bd.shape)
                     if need_b else None)]
        g2 = g.reshape(-1, bd.shape[1])
        return [(a, (g2 @ bd.T).reshape(ad.shape) if need_a else None),
                (b, Factors(ad.reshape(-1, k), g2) if need_b else None)]

    return _record("matmul", (a, b), out, grad_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(tensors)
    try:
        out = np.concatenate([t.data for t in parts], axis=axis)
    except ValueError as exc:  # numpy's AxisError is a ValueError too
        raise ShapeMismatchError(f"concat: {exc}") from None
    offsets = np.cumsum([0] + [t.shape[axis] for t in parts])

    def grad_fn(g):
        pairs = []
        for i, t in enumerate(parts):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            pairs.append((t, g[tuple(sl)]))
        return pairs

    return _record("concat", parts, out, grad_fn)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shaped tensors along a new leading axis."""
    parts = tuple(tensors)
    try:
        out = np.stack([t.data for t in parts], axis=0)
    except ValueError as exc:
        raise ShapeMismatchError(f"stack: {exc}") from None

    def grad_fn(g):
        return [(t, g[i]) for i, t in enumerate(parts)]

    return _record("stack", parts, out, grad_fn)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def grad_fn(g):
        return [(x, g * (1.0 - out * out))]

    return _record("tanh", (x,), out, grad_fn)


def _sigmoid(xd: np.ndarray) -> np.ndarray:
    """Logistic function, never taking exp of a positive number: with e =
    exp(-|x|), 1 / (1 + e) where x >= 0 and e / (1 + e) below, without
    masks (for x < 0, -|x| is exactly x)."""
    e = np.exp(-np.abs(xd))
    return np.where(xd >= 0, 1.0, e) / (1.0 + e)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``; rows sum to 1."""
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return [(x, out * (g - dot))]

    return _record("softmax", (x,), out, grad_fn)


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.data)
    # log keeps its own check: its domain ends at 0, and a NaN or inf from
    # anywhere upstream of a loss reaches its log too
    finite(out, "non-finite output of log")

    def grad_fn(g):
        return [(x, g / x.data)]

    return _record("log", (x,), out, grad_fn)


def sum(x: Tensor, axis: int | None = None) -> Tensor:  # noqa: A001 - numpy-style name
    out = x.data.sum(axis=axis)

    def grad_fn(g):
        if axis is None:
            return [(x, np.broadcast_to(g, x.shape).copy())]
        expanded = np.expand_dims(g, axis)
        return [(x, np.broadcast_to(expanded, x.shape).copy())]

    return _record("sum", (x,), np.asarray(out), grad_fn)


def lookup(table: Tensor, indices) -> Tensor:
    """Row lookup along the first axis of a table of rank 2 or more: an int
    gives one row; a sequence or an index array gives one row per index,
    shaped like the indices plus the row's shape."""
    if table.data.ndim < 2:
        raise ShapeMismatchError("lookup table must be at least 2-D")
    idx = np.asarray(indices, dtype=np.intp)
    out = table.data[idx]  # advanced indexing, by a 0-d index too: a new array, not a view

    def grad_fn(g):
        return [(table, Rows(idx, g))]

    return _record("lookup", (table,), out, grad_fn)


def slice_(x: Tensor, start: int, stop: int, axis: int = 0) -> Tensor:
    if not (0 <= start <= stop <= x.shape[axis]):
        raise ShapeMismatchError(f"slice [{start}:{stop}] outside axis of extent {x.shape[axis]}")
    key = [slice(None)] * x.data.ndim
    key[axis] = slice(start, stop)
    key = tuple(key)
    out = x.data[key]

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return [(x, gx)]

    return _record("slice", (x,), out.copy(), grad_fn)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def grad_fn(g):
        return [(x, g.reshape(x.shape))]

    return _record("reshape", (x,), x.data.reshape(shape), grad_fn)


def _extremum(ufunc, wins, a: Tensor, b: Tensor, kind: str) -> Tensor:
    """Elementwise ``ufunc`` of a and b; the gradient goes to ``a`` where
    ``wins(a, b)`` holds, ties included, and to ``b`` elsewhere."""
    out = _broadcast(ufunc, a, b, kind)

    def grad_fn(g):
        take_a = wins(a.data, b.data)
        return [(a, _unbroadcast(np.where(take_a, g, 0.0), a.shape) if _tracked(a) else None),
                (b, _unbroadcast(np.where(take_a, 0.0, g), b.shape) if _tracked(b) else None)]

    return _record(kind, (a, b), out, grad_fn)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties send the gradient to ``a``."""
    return _extremum(np.minimum, np.less_equal, a, b, "minimum")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties send the gradient to ``a``."""
    return _extremum(np.maximum, np.greater_equal, a, b, "maximum")


def additive_scores(keys: Tensor, shift: Tensor, gate: Tensor) -> Tensor:
    """gate . tanh(key_i + shift) for every key row, the additive attention
    score: keys (..., N, A) and shift (..., A), whose leading axes broadcast,
    give (..., N) scores.

    One node that keeps only the tanh output z, never the sum before it.
    Keys with one axis fewer than a z of 4 or more axes (training's fact
    head: (B, N_f, A) keys, (T, B, A) shifts) go one leading slice of z at a
    time, so each slice's temporaries stay in cache; any other call is one
    slice. Bit for bit the whole: the keys gradient adds the slices in order
    from +0.0, as numpy sums an axis, and the gate gradient is one product.
    """
    kd, sd, gd = keys.data, shift.data, gate.data
    try:
        if kd.ndim < 2 or gd.shape != (kd.shape[-1],):
            raise ValueError
        shape = np.broadcast_shapes(kd.shape, sd[..., None, :].shape)
    except (ValueError, IndexError):
        raise ShapeMismatchError(f"additive_scores: keys {kd.shape}, shift {sd.shape} and "
                                 f"gate {gd.shape} do not fit (..., N, A), (..., A), (A,)")
    sliced = len(shape) > 3 and kd.ndim == len(shape) - 1
    z, out = np.empty(shape), np.empty(shape[:-1])
    for z_i, s_i, out_i in zip(*((z, sd, out) if sliced else ([z], [sd], [out]))):
        np.add(kd, s_i[..., None, :], out=z_i)
        np.tanh(z_i, out=z_i)
        np.matmul(z_i, gd, out=out_i)

    def grad_fn(g):
        need_keys, need_shift = _tracked(keys), _tracked(shift)
        d_keys = np.zeros(shape[1:]) if sliced and need_keys else None
        d_shift = np.empty(shape[:-2] + shape[-1:]) if need_shift else None
        if need_keys or need_shift:
            for i, z_i in enumerate(z if sliced else [z]):
                d = np.multiply(z_i, z_i)
                np.subtract(1.0, d, out=d)
                d *= (g[i] if sliced else g)[..., None]
                d *= gd                            # d(loss)/d(key_i + shift)
                if need_keys:
                    d_keys = d if d_keys is None else np.add(d_keys, d, out=d_keys)
                if need_shift:
                    np.sum(d, axis=-2, out=d_shift[i] if sliced else d_shift)
        return [(keys, _unbroadcast(d_keys, kd.shape) if need_keys else None),
                (shift, _unbroadcast(d_shift, sd.shape) if need_shift else None),
                (gate, z.reshape(-1, gd.size).T @ g.reshape(-1) if _tracked(gate) else None)]

    return _record("additive_scores", (keys, shift, gate), out, grad_fn)


def lstm_seq(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, reverse: bool = False,
             lengths=None, state: "tuple[Tensor, Tensor] | None" = None) -> Tensor:
    """An LSTM run over each of the B sequences of a padded batch x (B, N,
    in) at once, last token first when ``reverse``, from ``state`` = (h, c),
    each (B, H), or from zero. Gates are packed as columns [input, forget, cell,
    output] of w_x (in, 4H), w_h (H, 4H) and b (4H,). Returns (B, N+1, H):
    row t of a sequence is its hidden state at position t, and row N its
    cell state after its last token.

    With ``lengths`` (B,), row b consumes its own ``lengths[b]`` tokens
    first, last to first when ``reverse``, and its padding after them, so
    the states at its tokens and its row N do not depend on the padding;
    without, every row has N tokens.

    The input projections of all steps are one GEMM; only ``h @ w_h`` runs
    per step. Backward is hand-written BPTT: one pass back over time for the
    gate pre-activation gradients dG and the state's, then dx = dG w_xᵀ as
    one GEMM; the weights get ``Factors(x rows, dG)`` and ``Factors(h_prev
    rows, dG)`` (Appleyard et al. 2016, arXiv 1604.01946).
    """
    return _record("lstm_seq", *_lstm_run(x, w_x, w_h, b, reverse, lengths, state))


def bidirectional_lstm(x: Tensor, forward: tuple[Tensor, Tensor, Tensor],
                       backward: tuple[Tensor, Tensor, Tensor], lengths) -> tuple[Tensor, Tensor]:
    """The two directions of a bidirectional LSTM over x, for (w_x, w_h, b)
    triples ``forward`` and ``backward``: the values and the two nodes of
    ``lstm_seq(x, *forward, lengths=lengths)`` and ``lstm_seq(x, *backward,
    reverse=True, lengths=lengths)``, recorded in that order.

    The two directions do not read each other (Appleyard et al. 2016). When
    the backward direction's w_h has at least ``HANDOFF_SIZE`` entries, the
    two runs (values and grad_fn, no recording) go to `in_parallel`, so the
    backward one gets a spare CPU if there is one; the calling thread then
    records both.
    """
    runs = [partial(_lstm_run, x, *forward, False, lengths, None),
            partial(_lstm_run, x, *backward, True, lengths, None)]
    small = backward[1].data.size < HANDOFF_SIZE
    first, second = [run() for run in runs] if small else in_parallel(runs)
    return _record("lstm_seq", *first), _record("lstm_seq", *second)


def _lstm_run(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, reverse: bool, lengths,
              state: "tuple[Tensor, Tensor] | None"):
    """`lstm_seq`'s work short of recording: its inputs, its output values
    and its grad_fn. It reads the tensors' data and nothing else, so any
    thread may run it."""
    xd, wx, wh, bd = x.data, w_x.data, w_h.data, b.data
    if xd.ndim != 3 or wh.ndim != 2 or not xd.shape[1]:
        raise ShapeMismatchError(f"lstm_seq: x {x.shape} must be (B, N>0, in)")
    rows, n, in_dim = xd.shape
    hid = wh.shape[0]
    if wh.shape != (hid, 4 * hid) or wx.shape != (in_dim, 4 * hid) or bd.shape != (4 * hid,):
        raise ShapeMismatchError(f"lstm_seq: x {x.shape}, w_x {wx.shape}, w_h {wh.shape}, "
                                 f"b {bd.shape}")
    inputs = (x, w_x, w_h, b) + tuple(state or ())
    if any(t.shape != (rows, hid) for t in inputs[4:]):
        raise ShapeMismatchError(f"lstm_seq: state {[t.shape for t in state]} for x {x.shape}")
    lens = np.full(rows, n) if lengths is None else np.asarray(lengths, dtype=np.intp)
    if lens.shape != (rows,) or lens.min() < 1 or lens.max() > n:
        raise ShapeMismatchError(f"lstm_seq: lengths {lens} for {rows} rows of {n} positions")
    # a[consumed][r, t] is a[r, p] for the position p row r consumes at step
    # t; the map is its own inverse, so it also puts step t back at p
    consumed = (slice(None), slice(None, None, -1) if reverse else slice(None))
    if reverse and (lens < n).any():
        steps = np.arange(n)
        consumed = (np.arange(rows)[:, None],
                    np.where(steps < lens[:, None], lens[:, None] - 1 - steps, steps))
    xs = np.ascontiguousarray(xd[consumed].transpose(1, 0, 2))  # (N, B, in), as consumed
    pre = (xs.reshape(-1, in_dim) @ wx + bd).reshape(n, rows, 4 * hid)
    acts = np.empty_like(pre)                 # gates after their nonlinearities
    cells = np.zeros((n + 1, rows, hid))      # cells[t + 1] is c after step t
    hs = np.zeros((n + 1, rows, hid))         # hs[t + 1] is h after step t
    if state is not None:
        hs[0], cells[0] = (t.data for t in state)
    tanh_c = np.empty((n, rows, hid))
    i, f, cg, o = (acts[..., k * hid:(k + 1) * hid] for k in range(4))
    for t in range(n):
        gates = pre[t] + hs[t] @ wh
        acts[t] = _sigmoid(gates)
        np.tanh(gates[:, 2 * hid:3 * hid], out=cg[t])
        cells[t + 1] = f[t] * cells[t] + i[t] * cg[t]
        np.tanh(cells[t + 1], out=tanh_c[t])
        np.multiply(o[t], tanh_c[t], out=hs[t + 1])
    out = np.empty((rows, n + 1, hid))
    out[:, :n] = hs[1:].transpose(1, 0, 2)[consumed]
    out[:, n] = cells[lens, np.arange(rows)]
    last_step = {int(t): np.flatnonzero(lens - 1 == t) for t in np.unique(lens - 1)}

    def grad_fn(g):
        # Per-step factors: dG's input, forget and cell blocks are dc times
        # `by_dc`, its output block dh times `by_dh`; dc picks up dh * `dc_dh`.
        by_dc = np.stack([cg * i * (1.0 - i), cells[:-1] * f * (1.0 - f),
                          i * (1.0 - cg * cg)], axis=2)                # (N, B, 3, H)
        by_dh = tanh_c * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        dh_out = g[:, :n][consumed].transpose(1, 0, 2)                # (N, B, H)
        d_pre = np.empty((n, rows, 4, hid))
        dh_next = np.zeros((rows, hid))
        dc = np.zeros((rows, hid))
        for t in range(n - 1, -1, -1):
            ending = last_step.get(t)
            if ending is not None:  # each row's final cell ends at its last token
                dc[ending] += g[ending, n]
            dh = dh_out[t] + dh_next
            dc = dc + dh * dc_dh[t]
            d_pre[t, :, :3] = by_dc[t] * dc[:, None]
            d_pre[t, :, 3] = dh * by_dh[t]
            dc = dc * f[t]
            if t or state is not None:  # at t = 0, the state's dh
                dh_next = d_pre[t].reshape(rows, 4 * hid) @ wh.T
        flat_dg = d_pre.reshape(-1, 4 * hid)
        dx = np.empty_like(xd)
        dx[consumed] = (flat_dg @ wx.T).reshape(n, rows, in_dim).transpose(1, 0, 2)
        return [(x, dx), (w_x, Factors(xs.reshape(-1, in_dim), flat_dg)),
                (w_h, Factors(hs[:-1].reshape(-1, hid), flat_dg)), (b, flat_dg.sum(axis=0))
                ] + list(zip(inputs[4:], (dh_next, dc)))

    return inputs, out, grad_fn


PRIMITIVES: dict[str, Callable] = {
    "matmul": matmul,
    "add": add,
    "mul": mul,
    "concat": concat,
    "stack": stack,
    "tanh": tanh,
    "softmax": softmax,
    "log": log,
    "sum": sum,
    "lookup": lookup,
    "slice": slice_,
    "reshape": reshape,
    "minimum": minimum,
    "maximum": maximum,
    "lstm_seq": lstm_seq,
    "additive_scores": additive_scores,
}


# ---------------------------------------------------------------------------
# Finite-difference verification.
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_error: float
    flagged: bool
    worst: tuple[int, int] | None = None  # (tensor index, flat entry index)


def gradient_check(f: Callable[[], Tensor], wrt: Sequence[Tensor],
                   eps: float = 1e-5, rel_tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of ``f()`` against central finite differences.

    ``f`` must be deterministic and close over the tensors in ``wrt``; their
    data is perturbed in place and restored. Disagreement above ``rel_tol``
    is flagged in the report, not raised, since it may indicate a point of
    non-differentiability rather than a wrong derivative.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    with Tape() as tape:
        loss = f()
    gm = tape.backward(loss, params=wrt)

    max_err = 0.0
    worst = None
    for ti, t in enumerate(wrt):
        analytic = gm[t]
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(f().data)
            flat[i] = orig - eps
            down = float(f().data)
            flat[i] = orig
            fd = (up - down) / (2.0 * eps)
            a = float(analytic.reshape(-1)[i])
            err = abs(a - fd) / max(1e-6, abs(a) + abs(fd))
            if np.isnan(err):  # a loss that overflowed (inf - inf) fails the check
                err = np.inf
            if err > max_err:
                max_err = err
                worst = (ti, i)
    return GradCheckReport(max_rel_error=max_err, flagged=max_err > rel_tol, worst=worst)
