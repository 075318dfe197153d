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
from .config import TemperatureSchedule
from .errors import (
    DegenerateDistributionError,
    EmptyFactSetError,
    InvalidScheduleError,
)
from .knowledge import Fact
from .seq2seq import MASK_LOGIT, _uniform, _uniform_in_out, padding_mask
from .text import BOS, PAD, UNK, Vocabulary

PROB_FLOOR = 1e-12
# Vocabulary ids the vocabulary source never produces: training credits it
# with no UNK target (the vocabulary cannot emit an out-of-vocabulary
# surface form), and PAD and BOS are never answer words.
NOT_FROM_VOCAB = (PAD, UNK, BOS)


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
    """softmax(W [c_q, c_p, s] + b) over the full vocabulary, specials included.

    The product is one `autodiff.matmul`. At full dims (W is 1280 x |V|) it
    runs as two column halves on both cores when a second CPU is spare, bit
    for bit the single product; at desk dims (160 x |V|, |V| at most 2,000)
    it stays one GEMM on the calling thread."""
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


def embed_facts(facts: Sequence[Fact], counts: Sequence[int], embeddings: Tensor,
                vocab: Vocabulary, params: SelectorParams) -> tuple[Tensor, Tensor | None]:
    """The fact keys of a batch, (B, N_f, A), and their `padding_mask`.

    ``facts`` holds every example's facts in turn, ``counts`` how many each
    has; example b's facts fill its first counts[b] slots. A slot's key is
    (W [e_subject, e_relation, e_object] + b) w_fact, projected once per
    batch or answer. Subjects and objects are average-pooled over their
    tokens (OOV words hit the UNK row), each distinct segment once, in
    first-seen order, in one padded lookup; ``vocab.segments`` numbers each
    segment by its surface form on first sight and holds its token ids. One
    lookup of a (B, N_f, 3) index then reads each slot's subject, relation
    and object rows from the pooled rows stacked on the relation table; a
    padded slot reads fact 0's rows, and its mask entry gives it zero weight
    and zero gradient. So the tape holds the same few nodes however many
    facts there are, and a segment's gradient is summed over its facts
    before it reaches the table. Padding tokens read the PAD row with weight
    0: it gets no gradient.
    """
    if not facts:
        raise EmptyFactSetError("no facts to embed")
    n, segments = len(facts), vocab.segments
    numbers = np.fromiter(map(segments.__getitem__, [f.subject for f in facts]
                              + [f.object for f in facts]), np.intp, 2 * n)
    distinct, first, inverse = np.unique(numbers, return_index=True, return_inverse=True)
    order = np.argsort(first)                        # the distinct numbers in first-seen order
    distinct, slots = distinct[order], np.argsort(order)[inverse]
    ids, filled = segments.rows(distinct)                               # (D, L)
    weights = (filled / filled.sum(axis=1, keepdims=True))[..., None]   # 1/len, 0 on PAD
    rows = ad.lookup(embeddings, ids)                                   # (D, L, emb)
    table = ad.concat([ad.sum(ad.mul(rows, ad.constant(weights)), axis=1),
                       params.relation_table])                          # (D + R, emb)
    index = np.column_stack([slots[:n], [len(distinct) + f.relation for f in facts],
                             slots[n:]])                                # (n, 3)
    in_slot = np.arange(max(counts)) < np.asarray(counts)[:, None]      # (B, N_f)
    fact_ids = (np.cumsum(in_slot).reshape(in_slot.shape) - 1) * in_slot  # padding reads fact 0
    feats = ad.lookup(table, index[fact_ids])                           # (B, N_f, 3, emb)
    hidden = ad.add(ad.matmul(ad.reshape(feats, fact_ids.shape + (-1,)), params.w_fact_embed),
                    params.b_fact_embed)                                # (B, N_f, fact_dim)
    return ad.matmul(hidden, params.w_fact), padding_mask(in_slot)


def fact_logits(fact_keys: Tensor, s_t: Tensor, params: SelectorParams) -> Tensor:
    """Scores (..., B, N_f) of each example's fact slots against its rows
    s_t (..., B, H). ``fact_keys`` are `embed_facts`' (B, N_f, A) keys, or
    (1, N_f, A) keys that every row reads, as beam search's rows do."""
    if fact_keys.shape[-2] == 0:
        raise EmptyFactSetError("fact matrix is empty")
    shift = ad.add(ad.matmul(s_t, params.u_fact), params.b_fact)   # (..., A)
    return ad.additive_scores(fact_keys, shift, params.gate_fact)  # (..., N_f)


def fact_distribution(fact_keys: Tensor, s_t: Tensor, params: SelectorParams,
                      mask: Tensor | None = None) -> Tensor:
    """Simplex over the related facts given the decoder state; `embed_facts`'
    additive ``mask`` (B, N_f) gives a batch's padded fact slots exactly zero
    weight."""
    logits = fact_logits(fact_keys, s_t, params)
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


def anneal_temperature(step: int, schedule: TemperatureSchedule) -> float:
    """Exponential decay clamped at tau_min: max(tau_min, tau0 * exp(-rate*step))."""
    schedule.validate()
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return max(schedule.tau_min, schedule.tau0 * float(np.exp(-schedule.rate * step)))
