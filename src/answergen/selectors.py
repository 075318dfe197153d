"""Word-source selection and fact selection.

Every emitted answer word is attributed to one of four sources: copy from
the question, copy from the passage, the output vocabulary, or a knowledge
fact whose object is injected verbatim. The 4-way choice and the
which-fact choice are discrete latent variables; sampling them with Gumbel
noise and relaxing the argmax to a temperature softmax keeps the whole
objective differentiable. Each head takes a stack of rows: (T, B, .) over
the steps of a training batch, (B, .) over a beam.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (
    DegenerateDistributionError,
    EmptyFactSetError,
    InvalidScheduleError,
)
from .knowledge import Fact
from .seq2seq import MASK_LOGIT, _uniform, _uniform_in_out
from .text import PAD, UNK, Vocabulary

PROB_FLOOR = 1e-12


class Source(enum.IntEnum):
    QUESTION = 1
    PASSAGE = 2
    VOCAB = 3
    KNOWLEDGE = 4


@dataclass
class SelectorParams:
    w_vocab: Tensor       # (5H, |V|)
    b_vocab: Tensor       # (|V|,)
    w_source: Tensor      # (5H + emb, 4)
    b_source: Tensor      # (4,)
    relation_table: Tensor  # (n_relations, emb)
    w_fact_embed: Tensor  # (3*emb, fact_dim)
    b_fact_embed: Tensor  # (fact_dim,)
    w_fact: Tensor        # (fact_dim, A)
    u_fact: Tensor        # (H, A)
    b_fact: Tensor        # (A,)
    gate_fact: Tensor     # (A,)

    @classmethod
    def init(cls, rng, vocab_size: int, n_relations: int, emb_dim: int,
             hidden_dim: int, fact_dim: int, attn_dim: int) -> "SelectorParams":
        feat = 5 * hidden_dim  # c_q (2H) + c_p (2H) + s (H)
        return cls(
            w_vocab=_uniform(rng, (feat, vocab_size), "sel.w_vocab"),
            b_vocab=_uniform(rng, (vocab_size,), "sel.b_vocab"),
            w_source=_uniform(rng, (feat + emb_dim, 4), "sel.w_source"),
            b_source=_uniform(rng, (4,), "sel.b_source"),
            relation_table=_uniform(rng, (max(n_relations, 1), emb_dim), "sel.relations"),
            w_fact_embed=_uniform(rng, (3 * emb_dim, fact_dim), "sel.w_fact_embed"),
            b_fact_embed=_uniform(rng, (fact_dim,), "sel.b_fact_embed"),
            w_fact=_uniform(rng, (fact_dim, attn_dim), "sel.w_fact"),
            u_fact=_uniform_in_out(rng, attn_dim, hidden_dim, "sel.u_fact"),
            b_fact=_uniform(rng, (attn_dim,), "sel.b_fact"),
            gate_fact=_uniform(rng, (attn_dim,), "sel.gate_fact"),
        )


def vocab_distribution(c_q: Tensor, c_p: Tensor, s_t: Tensor,
                       params: SelectorParams) -> Tensor:
    """softmax(W [c_q, c_p, s] + b) over the full vocabulary, specials included."""
    feats = ad.concat([c_q, c_p, s_t], axis=-1)
    return ad.softmax(ad.add(ad.matmul(feats, params.w_vocab), params.b_vocab))


def source_distribution(c_q: Tensor, c_p: Tensor, s_t: Tensor, x_t: Tensor,
                        params: SelectorParams, knowledge_available=True) -> Tensor:
    """4-simplex over sources; x_t is the decoder-input word embedding.

    With no related facts the knowledge entry is masked to exactly zero and
    the rest renormalize, which the additive pre-softmax mask does in one go.
    ``knowledge_available`` is one flag, or an array of flags that broadcasts
    against the rows' leading axes, such as one per example of a batch.
    """
    feats = ad.concat([c_q, c_p, s_t, x_t], axis=-1)
    logits = ad.add(ad.matmul(feats, params.w_source), params.b_source)
    available = np.asarray(knowledge_available)
    if not available.all():
        logits = ad.add(logits, ad.constant(
            np.where(available[..., None], 0.0, [0.0, 0.0, 0.0, MASK_LOGIT])))
    return ad.softmax(logits)


def embed_facts(facts: Sequence[Fact], embeddings: Tensor, vocab: Vocabulary,
                params: SelectorParams) -> Tensor:
    """(N_f, fact_dim) matrix of W [e_subject, e_relation, e_object] + b rows.

    Subjects and objects are average-pooled over their tokens (OOV words hit
    the UNK row) in one padded lookup, so the tape holds the same few nodes
    however many facts there are. Padding slots read the PAD row with
    weight 0, so it gets no gradient from them.
    """
    if not facts:
        raise EmptyFactSetError("no facts to embed")
    n = len(facts)
    segments = [f.subject for f in facts] + [f.object for f in facts]
    lengths = np.array([len(seg) for seg in segments])[:, None]          # (2N_f, 1)
    filled = np.arange(lengths.max()) < lengths                          # (2N_f, L)
    ids = np.full(filled.shape, PAD, dtype=np.intp)
    ids[filled] = [vocab.id_by_token.get(t, UNK) for seg in segments for t in seg]
    weights = (filled / lengths)[..., None]                              # 1/len, 0 on PAD
    rows = ad.lookup(embeddings, ids)                                   # (2N_f, L, emb)
    pooled = ad.sum(ad.mul(rows, ad.constant(weights)), axis=1)         # (2N_f, emb)
    e_r = ad.lookup(params.relation_table, [f.relation for f in facts])
    feats = ad.concat([ad.slice_(pooled, 0, n), e_r, ad.slice_(pooled, n, 2 * n)],
                      axis=1)                                           # (N_f, 3*emb)
    return ad.add(ad.matmul(feats, params.w_fact_embed), params.b_fact_embed)


def fact_logits(fact_matrix: Tensor, s_t: Tensor, params: SelectorParams) -> Tensor:
    """Scores of the facts (N_f, fact_dim) against s_t (..., H), or of each
    example's facts (B, N_f, fact_dim) against its rows s_t (..., B, H)."""
    if fact_matrix.shape[-2] == 0:
        raise EmptyFactSetError("fact matrix is empty")
    shift = ad.add(ad.matmul(s_t, params.u_fact), params.b_fact)   # (..., A)
    return ad.additive_scores(ad.matmul(fact_matrix, params.w_fact), shift,
                              params.gate_fact)                        # (..., N_f)


def fact_distribution(fact_matrix: Tensor, s_t: Tensor, params: SelectorParams,
                      mask: Tensor | None = None) -> Tensor:
    """Simplex over the related facts given the decoder state; an additive
    ``mask`` (B, N_f) gives a batch's padded fact slots exactly zero weight."""
    logits = fact_logits(fact_matrix, s_t, params)
    return ad.softmax(logits if mask is None else ad.add(logits, mask))


# ---------------------------------------------------------------------------
# Gumbel-Softmax machinery.
# ---------------------------------------------------------------------------

@dataclass
class GumbelSample:
    soft: Tensor            # relaxed sample on the simplex; gradients flow here
    hard_index: np.ndarray  # argmax of soft per row, distributed by the Gumbel-Max law


def gumbel_softmax_sample(probs: Tensor, tau: float, *, uniforms: np.ndarray,
                          mask: Tensor | None = None) -> GumbelSample:
    """Relaxed categorical samples over the last axis of ``probs``:
    softmax((log pi + g) / tau), one per row.

    probs are floored at 1e-12 before the log so masked-out categories stay
    legal; the Gumbel noise g = -log(-log(u)) uses the same floor on u. The
    ``uniforms`` u are drawn by the caller, in the order it needs and in a
    shape that broadcasts against ``probs`` (several draws per row). An
    additive ``mask`` gives padded categories exactly zero weight.
    """
    if tau <= 0:
        raise InvalidScheduleError(f"temperature must be > 0, got {tau}")
    if np.all(probs.data < PROB_FLOOR, axis=-1).any():
        raise DegenerateDistributionError("all probability mass below the floor")
    noise = -np.log(-np.log(np.clip(uniforms, PROB_FLOOR, 1.0)))
    logits = ad.log(ad.maximum(probs, ad.constant(PROB_FLOOR)))
    shifted = ad.mul(ad.add(logits, ad.constant(noise)), ad.constant(1.0 / tau))
    soft = ad.softmax(shifted if mask is None else ad.add(shifted, mask))
    return GumbelSample(soft=soft, hard_index=np.argmax(soft.data, axis=-1))


def gumbel_hard_indices(probs: np.ndarray, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized hard indices for `draws` samples.

    Consumes the generator stream exactly like `draws` successive calls to
    gumbel_softmax_sample, each given ``uniforms=rng.random(probs.shape)``,
    so the two routes are interchangeable in tests.
    """
    k = probs.shape[0]
    u = np.clip(rng.random((draws, k)), PROB_FLOOR, 1.0)
    noise = -np.log(-np.log(u))
    logits = np.log(np.maximum(probs, PROB_FLOOR))
    return np.argmax(logits + noise, axis=1)


@dataclass
class TemperatureSchedule:
    tau0: float = 1.0
    tau_min: float = 0.1
    rate: float = 1e-4

    def validate(self) -> "TemperatureSchedule":
        if self.tau_min <= 0:
            raise InvalidScheduleError(f"tau_min must be > 0, got {self.tau_min}")
        if self.tau0 < self.tau_min:
            raise InvalidScheduleError("tau0 below tau_min")
        if self.rate < 0:
            raise InvalidScheduleError("negative anneal rate")
        return self


def anneal_temperature(step: int, schedule: TemperatureSchedule) -> float:
    """Exponential decay clamped at tau_min: max(tau_min, tau0 * exp(-rate*step))."""
    schedule.validate()
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return max(schedule.tau_min, schedule.tau0 * float(np.exp(-schedule.rate * step)))
