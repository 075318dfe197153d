"""The full answer-generation model: embeddings, two encoders, decoder cell
with input feeding, both attentions, and the selector heads, exposed as a
functional stepping interface shared by training and beam search.

Step dataflow (one decoder timestep): the cell consumes the previous word
embedding concatenated with the previous contexts, question attention is
computed first, its context feeds the passage attention, and coverage
advances by the step's attention. The step computes no coverage penalty:
that is a training-only term, which `training.batch_elbo_loss` takes once
per batch from the stacked attentions and pre-step coverages.
Every step takes (B, .) rows. Training steps one row per example against
the padded batch's encoder outputs; beam search steps one row per live
hypothesis against the outputs of its example encoded as a batch of one,
which broadcast across the rows.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .seq2seq import (
    AttentionParams,
    EncoderOutput,
    EncoderParams,
    LSTMParams,
    attend,
    context_vector,
    encode,
    lstm_step,
    _uniform,
)
from .selectors import SelectorParams
from .text import Vocabulary


@dataclass(frozen=True)
class StepState:
    """Decoder carry between timesteps, a (B, .) batch of rows per field.
    Tensors are never mutated."""
    h: Tensor
    c: Tensor
    c_q: Tensor
    c_p: Tensor
    cov_q: Tensor
    cov_p: Tensor


@dataclass(frozen=True)
class StepOutput:
    state: StepState  # post-step carry: s_t is state.h, coverage already advanced
    a_q: Tensor
    a_p: Tensor


class AnswerModel:
    def __init__(self, vocab: Vocabulary, n_relations: int, dims: ModelConfig,
                 rng: np.random.Generator):
        self.vocab = vocab
        self.dims = dims
        self.n_relations = n_relations
        emb, hid, attn = dims.emb_dim, dims.hidden_dim, dims.attn_dim

        self.embedding = Tensor(rng.uniform(-0.1, 0.1, size=(len(vocab), emb)),
                                requires_grad=True, name="embedding")
        self.q_encoder = EncoderParams.init(rng, emb, hid, "enc_q")
        self.p_encoder = EncoderParams.init(rng, emb, hid, "enc_p")
        self.decoder = LSTMParams.init(rng, emb + 4 * hid, hid, "dec")
        self.w_init_h = _uniform(rng, (4 * hid, hid), "init.w_h")
        self.b_init_h = _uniform(rng, (hid,), "init.b_h")
        self.w_init_c = _uniform(rng, (4 * hid, hid), "init.w_c")
        self.b_init_c = _uniform(rng, (hid,), "init.b_c")
        self.attn_q = AttentionParams.init(rng, 2 * hid, hid, attn, "attn_q")
        self.attn_p = AttentionParams.init(rng, 2 * hid, hid, attn, "attn_p",
                                           with_context=True)
        self.selector = SelectorParams.init(rng, len(vocab), n_relations, emb,
                                            hid, dims.fact_dim, attn)
        self._registry = self._build_registry()

    # --- parameter registry ---

    def _build_registry(self) -> dict[str, Tensor]:
        registry: dict[str, Tensor] = {}

        def put(t: Tensor):
            assert t.name is not None and t.name not in registry, t.name
            registry[t.name] = t

        put(self.embedding)
        for holder in (self.q_encoder.fwd, self.q_encoder.bwd,
                       self.p_encoder.fwd, self.p_encoder.bwd, self.decoder,
                       self.attn_q, self.attn_p, self.selector):
            for f in fields(holder):
                value = getattr(holder, f.name)
                if isinstance(value, Tensor):
                    put(value)
        for t in (self.w_init_h, self.b_init_h, self.w_init_c, self.b_init_c):
            put(t)
        return registry

    @property
    def parameters(self) -> dict[str, Tensor]:
        return self._registry

    def parameter_count(self) -> int:
        return int(np.sum([t.data.size for t in self._registry.values()]))

    # --- forward pieces ---

    def encode_question(self, seqs) -> EncoderOutput:
        """A batch of id sequences (see `seq2seq.encode`)."""
        return encode(seqs, self.embedding, self.q_encoder, self.attn_q.w_states)

    def encode_passage(self, seqs) -> EncoderOutput:
        return encode(seqs, self.embedding, self.p_encoder, self.attn_p.w_states)

    def initial_state(self, enc_q: EncoderOutput, enc_p: EncoderOutput) -> StepState:
        """(B, .) rows, one per example of the encoded batch."""
        hid = self.dims.hidden_dim
        rows = enc_q.final_h.shape[0]
        both_h = ad.concat([enc_q.final_h, enc_p.final_h], axis=-1)
        both_c = ad.concat([enc_q.final_c, enc_p.final_c], axis=-1)
        h0 = ad.tanh(ad.add(ad.matmul(both_h, self.w_init_h), self.b_init_h))
        c0 = ad.tanh(ad.add(ad.matmul(both_c, self.w_init_c), self.b_init_c))
        zeros_ctx = ad.constant(np.zeros((rows, 2 * hid)))
        return StepState(
            h=h0, c=c0, c_q=zeros_ctx, c_p=zeros_ctx,
            cov_q=ad.constant(np.zeros((rows, enc_q.length))),
            cov_p=ad.constant(np.zeros((rows, enc_p.length))),
        )

    def step(self, enc_q: EncoderOutput, enc_p: EncoderOutput,
             state: StepState, x_emb: Tensor) -> StepOutput:
        dec_in = ad.concat([x_emb, state.c_q, state.c_p], axis=-1)
        h, c = lstm_step(self.decoder, dec_in, state.h, state.c)
        a_q = attend(enc_q.keys, h, state.cov_q, self.attn_q, mask=enc_q.mask)
        c_q = context_vector(a_q, enc_q.states)
        a_p = attend(enc_p.keys, h, state.cov_p, self.attn_p, context=c_q, mask=enc_p.mask)
        c_p = context_vector(a_p, enc_p.states)
        new_state = StepState(
            h=h, c=c, c_q=c_q, c_p=c_p,
            cov_q=ad.add(state.cov_q, a_q),
            cov_p=ad.add(state.cov_p, a_p),
        )
        return StepOutput(state=new_state, a_q=a_q, a_p=a_p)
