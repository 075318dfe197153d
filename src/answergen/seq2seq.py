"""Bidirectional LSTM encoders, the decoder cell, and coverage-aware attention.

Attention over encoder states e_i at decoder state s is
    softmax_i( g . tanh(e_i W + cov_i w_cov + s U + b [+ c_q V]) )
with the c_q V term present only for the passage side, which conditions on
the same-step question context. Coverage is the running sum of past
attention vectors and enters both the logits and the training penalty
sum_i min(a_i, cov_i).

Every weight is stored (in, out), so each layer computes rows @ W. The cell,
the attention and the coverage penalty take one decoder row or a (B, .)
batch of rows, one per beam hypothesis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import EmptySequenceError

INIT_SCALE = 0.08  # uniform parameter init range


def _uniform(rng: np.random.Generator, shape, name: str) -> Tensor:
    return Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape),
                  requires_grad=True, name=name)


def _uniform_in_out(rng: np.random.Generator, out_dim: int, in_dim: int, name: str) -> Tensor:
    """A weight drawn (out, in), the layout it was first drawn in, and stored
    (in, out), so seeded values are the same in either layout."""
    t = _uniform(rng, (out_dim, in_dim), name)
    t.data = t.data.T.copy()
    return t


@dataclass
class LSTMParams:
    """Gate weights packed as columns [input, forget, cell, output]."""
    w_x: Tensor  # (in_dim, 4H)
    w_h: Tensor  # (H, 4H)
    b: Tensor    # (4H,)

    @classmethod
    def init(cls, rng, in_dim: int, hidden: int, name: str) -> "LSTMParams":
        return cls(
            w_x=_uniform_in_out(rng, 4 * hidden, in_dim, f"{name}.w_x"),
            w_h=_uniform_in_out(rng, 4 * hidden, hidden, f"{name}.w_h"),
            b=_uniform(rng, (4 * hidden,), f"{name}.b"),
        )

    @property
    def hidden(self) -> int:
        return self.w_h.shape[0]


def lstm_step(p: LSTMParams, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One cell update of a row or a batch of rows; returns (h', c')."""
    hid = p.hidden
    gates = ad.add(ad.add(ad.matmul(x, p.w_x), ad.matmul(h, p.w_h)), p.b)
    i = ad.sigmoid(ad.slice_(gates, 0, hid, axis=-1))
    f = ad.sigmoid(ad.slice_(gates, hid, 2 * hid, axis=-1))
    g = ad.tanh(ad.slice_(gates, 2 * hid, 3 * hid, axis=-1))
    o = ad.sigmoid(ad.slice_(gates, 3 * hid, 4 * hid, axis=-1))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    return h_new, c_new


@dataclass
class EncoderParams:
    fwd: LSTMParams
    bwd: LSTMParams

    @classmethod
    def init(cls, rng, in_dim: int, hidden: int, name: str) -> "EncoderParams":
        return cls(LSTMParams.init(rng, in_dim, hidden, f"{name}.fwd"),
                   LSTMParams.init(rng, in_dim, hidden, f"{name}.bwd"))


@dataclass
class EncoderOutput:
    states: Tensor   # (N, 2H): forward and backward states concatenated per token
    final_h: Tensor  # (2H,)
    final_c: Tensor  # (2H,)

    @property
    def length(self) -> int:
        return self.states.shape[0]


def encode(ids, embeddings: Tensor, params: EncoderParams) -> EncoderOutput:
    """Run both directions over the token ids and concatenate per position."""
    if len(ids) == 0:
        raise EmptySequenceError("cannot encode an empty sequence")
    hid = params.fwd.hidden
    table = ad.lookup(embeddings, ids)  # one lookup; rows below come from this small table
    embs = [ad.lookup(table, i) for i in range(len(ids))]

    def run(cell: LSTMParams, seq):
        h = ad.constant(np.zeros(hid))
        c = ad.constant(np.zeros(hid))
        states = []
        for x in seq:
            h, c = lstm_step(cell, x, h, c)
            states.append(h)
        return states, h, c

    fwd_states, fwd_h, fwd_c = run(params.fwd, embs)
    bwd_states, bwd_h, bwd_c = run(params.bwd, embs[::-1])
    bwd_states = bwd_states[::-1]
    per_token = [ad.concat([f, b]) for f, b in zip(fwd_states, bwd_states)]
    return EncoderOutput(
        states=ad.stack(per_token),
        final_h=ad.concat([fwd_h, bwd_h]),
        final_c=ad.concat([fwd_c, bwd_c]),
    )


@dataclass
class AttentionParams:
    w_states: Tensor          # (2H, A)
    u_state: Tensor           # (H, A)
    b: Tensor                 # (A,)
    gate: Tensor              # (A,)
    w_cov: Tensor             # (A,) coverage feature weight
    v_context: Tensor | None  # (2H, A) question-context term, passage side only

    @classmethod
    def init(cls, rng, state_dim: int, dec_dim: int, attn_dim: int, name: str,
             with_context: bool = False) -> "AttentionParams":
        return cls(
            w_states=_uniform(rng, (state_dim, attn_dim), f"{name}.w_states"),
            u_state=_uniform_in_out(rng, attn_dim, dec_dim, f"{name}.u_state"),
            b=_uniform(rng, (attn_dim,), f"{name}.b"),
            gate=_uniform(rng, (attn_dim,), f"{name}.gate"),
            w_cov=_uniform(rng, (attn_dim,), f"{name}.w_cov"),
            v_context=_uniform_in_out(rng, attn_dim, state_dim, f"{name}.v_context")
            if with_context else None,
        )


def additive_scores(keys: Tensor, shift: Tensor, gate: Tensor) -> Tensor:
    """gate . tanh(key_i + shift) for every key row: keys (..., N, A) and
    shift (..., A) give (..., N) scores."""
    shift = ad.reshape(shift, shift.shape[:-1] + (1, shift.shape[-1]))  # (..., 1, A)
    return ad.matmul(ad.tanh(ad.add(keys, shift)), gate)


def attend(states: Tensor, s_t: Tensor, coverage: Tensor, params: AttentionParams,
           context: Tensor | None = None) -> Tensor:
    """Attention simplex over the N encoder positions: s_t (..., H),
    coverage (..., N) and context (..., 2H) give (..., N)."""
    shift = ad.add(ad.matmul(s_t, params.u_state), params.b)          # (..., A)
    if context is not None:
        if params.v_context is None:
            raise ValueError("attention has no context projection")
        shift = ad.add(shift, ad.matmul(context, params.v_context))
    cov = ad.reshape(coverage, coverage.shape + (1,))                  # (..., N, 1)
    keys = ad.add(ad.matmul(states, params.w_states), ad.mul(cov, params.w_cov))
    return ad.softmax(additive_scores(keys, shift, params.gate))


def context_vector(attention: Tensor, states: Tensor) -> Tensor:
    """Convex combination of encoder states, c = sum_i a_i e_i."""
    return ad.matmul(attention, states)


def coverage_penalty(attention: Tensor, coverage: Tensor) -> Tensor:
    """Per-step repetition penalty sum_i min(a_i, cov_i), one per row."""
    return ad.sum(ad.minimum(attention, coverage), axis=-1)
