"""Bidirectional LSTM encoders, the decoder cell, and coverage-aware attention.

Attention over encoder states e_i at decoder state s is
    softmax_i( g . tanh(e_i W + cov_i w_cov + s U + b [+ c_q V]) )
with the c_q V term present only for the passage side, which conditions on
the same-step question context. Coverage is the running sum of past
attention vectors and enters both the logits and the training penalty
sum_i min(a_i, cov_i).

The LSTM cell is `autodiff.lstm_seq`: one over each encoder direction
(`autodiff.bidirectional_lstm`, which runs the two at once on two CPUs at
full dims), and a one-step run from the carried (h, c) per decoder step
(`lstm_step`).
Every weight is stored (in, out), so each layer computes rows @ W. The
encoders take a padded batch of sequences; beam search encodes a batch of
one. The cell and the attention take a (B, .) batch of decoder rows: one
per example against a padded batch's encoder states, whose padded positions
get an additive MASK_LOGIT before the softmax, or one per beam hypothesis
against a batch of one's, which broadcast across the rows. The coverage
penalty takes rows of any leading shape; training passes all (T, B, N) at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import EmptySequenceError
from .text import PAD, padded

INIT_SCALE = 0.08  # uniform parameter init range
MASK_LOGIT = -1e30  # additive pre-softmax mask; exact zero after normalization


def _uniform(rng: np.random.Generator, shape, name: str) -> Tensor:
    return Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape),
                  requires_grad=True, name=name)


def _uniform_in_out(rng: np.random.Generator, out_dim: int, in_dim: int, name: str) -> Tensor:
    """A weight drawn (out, in), the layout it was first drawn in, and stored
    (in, out), so seeded values are the same in either layout."""
    t = _uniform(rng, (out_dim, in_dim), name)
    t.data = t.data.T.copy()
    return t


def padding_mask(filled: np.ndarray) -> Tensor | None:
    """The additive mask of a `text.padded` layout: 0 where ``filled``,
    MASK_LOGIT at padding, so padding gets exactly zero weight and zero
    gradient from the softmax it is added before; None when nothing is padded."""
    return None if filled.all() else ad.constant(np.where(filled, 0.0, MASK_LOGIT))


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
    """One cell update of a (B, in) batch of rows from (B, H) states, as a
    one-step `autodiff.lstm_seq` from (h, c); returns (h', c')."""
    hid = p.hidden
    steps = ad.reshape(x, x.shape[:-1] + (1, x.shape[-1]))               # (B, 1, in)
    out = ad.lstm_seq(steps, p.w_x, p.w_h, p.b, state=(h, c))           # (B, 2, H)
    both = ad.reshape(out, h.shape[:-1] + (2 * hid,))
    return ad.slice_(both, 0, hid, axis=-1), ad.slice_(both, hid, 2 * hid, axis=-1)


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
    """A padded batch's fields, one row per sequence."""
    states: Tensor       # (B, N, 2H): forward and backward states concatenated per token
    keys: Tensor         # (B, N, A): states @ w_states of the attention that reads them
    final_h: Tensor      # (B, 2H)
    final_c: Tensor      # (B, 2H)
    mask: Tensor | None = None  # (B, N): 0 at tokens, MASK_LOGIT at padding; None unpadded

    @property
    def length(self) -> int:
        return self.states.shape[-2]


def encode(seqs, embeddings: Tensor, params: EncoderParams, w_keys: Tensor) -> EncoderOutput:
    """Run both directions over a batch of token id sequences, padded to the
    longest, and concatenate per position. ``w_keys`` is the (2H, A) state
    projection of the attention over these states, applied here once rather
    than on every decoder step."""
    id_rows, filled = padded(seqs, PAD)                                  # (B, N)
    lens = filled.sum(axis=1)
    if not lens.size or lens.min() == 0:
        raise EmptySequenceError("cannot encode an empty sequence")
    n, hid = filled.shape[1], params.fwd.hidden
    x = ad.lookup(embeddings, id_rows)                                   # (B, N, emb)
    fwd, bwd = ad.bidirectional_lstm(x, (params.fwd.w_x, params.fwd.w_h, params.fwd.b),
                                     (params.bwd.w_x, params.bwd.w_h, params.bwd.b), lens)
    both = ad.concat([fwd, bwd], axis=-1)       # (B, N+1, 2H); row N is the final c
    states = ad.slice_(both, 0, n, axis=-2)
    # one (H,) row per sequence, position and direction: the forward pass
    # ends at a sequence's last token, the backward pass at its first
    rows = ad.reshape(both, (-1, hid))
    first = 2 * (n + 1) * np.arange(len(seqs))[:, None]
    return EncoderOutput(
        states=states,
        keys=ad.matmul(states, w_keys),
        final_h=ad.reshape(ad.lookup(rows, first + np.stack([2 * (lens - 1), np.ones_like(lens)],
                                                           axis=1)), (len(seqs), 2 * hid)),
        final_c=ad.reshape(ad.lookup(rows, first + [2 * n, 2 * n + 1]), (len(seqs), 2 * hid)),
        mask=padding_mask(filled),
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


def attend(keys: Tensor, s_t: Tensor, coverage: Tensor, params: AttentionParams,
           context: Tensor | None = None, mask: Tensor | None = None) -> Tensor:
    """Attention simplex over the N encoder positions, whose states enter as
    ``keys`` = states @ w_states, (B, N, A), or (1, N, A) read by every row:
    s_t (B, H), coverage (B, N) and context (B, 2H) give (B, N). An additive
    ``mask`` (B, N) gives padded positions exactly zero weight."""
    shift = ad.add(ad.matmul(s_t, params.u_state), params.b)          # (B, A)
    if context is not None:
        if params.v_context is None:
            raise ValueError("attention has no context projection")
        shift = ad.add(shift, ad.matmul(context, params.v_context))
    cov = ad.reshape(coverage, coverage.shape + (1,))                  # (B, N, 1)
    keys = ad.add(keys, ad.mul(cov, params.w_cov))
    scores = ad.additive_scores(keys, shift, params.gate)
    return ad.softmax(scores if mask is None else ad.add(scores, mask))


def context_vector(attention: Tensor, states: Tensor) -> Tensor:
    """Convex combination of encoder states, c = sum_i a_i e_i: (B, N)
    against a batch's (B, N, 2H), or against one example's (1, N, 2H)."""
    return ad.matmul(attention, states)


def coverage_penalty(attention: Tensor, coverage: Tensor) -> Tensor:
    """Per-step repetition penalty sum_i min(a_i, cov_i), one per row."""
    return ad.sum(ad.minimum(attention, coverage), axis=-1)
