"""Beam-search answer generation with per-token source tracing.

Each decoding step picks the argmax source, then expands the beam with the
top tokens of that source's word distribution (deterministic, so a
checkpoint always generates the same answer). Selecting the knowledge
source starts emitting the chosen fact's object verbatim: the remaining
object tokens are a pending queue consumed one decoder step at a time,
with no new source decision until the queue drains. A hypothesis's score
is the sum of per-token log(P(source) * P(word | source)) terms; pending
continuations are charged log(1) = 0, the whole object having been paid
for when its fact was chosen.

The example is encoded as a batch of one, so the search uses the model
step that training uses; the coverage penalty, a training term, is never
computed here. The live hypotheses advance together: each search step
gathers their decoder rows into one (B, .) batch, steps it against the
(1, N, .) encoder outputs, which broadcast across the rows, and calls each
selector head at most once for the whole beam.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .errors import NonFiniteValueError
from .files import replace_file
from .knowledge import KnowledgeBase, extract_related_facts, resolve_facts
from .model import AnswerModel, StepState
from .selectors import (
    Source,
    embed_facts,
    fact_distribution,
    source_distribution,
    vocab_distribution,
)
from .text import BOS, EOS_TOKEN_SENTINEL, PAD, EncodeLimits, encode_example

SOURCE_LABELS = {Source.QUESTION: "question", Source.PASSAGE: "passage",
                 Source.VOCAB: "vocabulary", Source.KNOWLEDGE: "knowledge"}


@dataclass(frozen=True)
class TraceStep:
    """One emitted token: the 4-way source probabilities at that step, the
    chosen source, and the probability factors charged to the beam score."""
    token: str
    source_probs: tuple[float, float, float, float]
    chosen: Source
    source_prob: float
    word_prob: float
    fact_id: int | None = None
    continuation: bool = False

    @property
    def log_prob(self) -> float:
        return math.log(self.source_prob * self.word_prob)

    def to_dict(self) -> dict:
        return {
            "token": self.token,
            "source_probs": list(self.source_probs),
            "chosen": SOURCE_LABELS[self.chosen],
            "source_prob": self.source_prob,
            "word_prob": self.word_prob,
            "fact_id": self.fact_id,
            "continuation": self.continuation,
        }


def trace_score(trace) -> float:
    """Recompute a hypothesis score from its trace; must match exactly."""
    return sum(step.log_prob for step in trace)


@dataclass(frozen=True)
class BeamHypothesis:
    """A partial answer. ``row`` is its row in the batched step output that
    produced it; the next step gathers its decoder carry from there."""
    prev_id: int
    row: int = 0
    score: float = 0.0
    pending: tuple[str, ...] = ()  # object tokens still to emit
    trace: tuple[TraceStep, ...] = ()

    @property
    def finished(self) -> bool:
        return bool(self.trace) and self.trace[-1].token == EOS_TOKEN_SENTINEL

    def normalized_score(self) -> float:
        return self.score / max(1, len(self.trace))


@dataclass
class GenerationResult:
    tokens: list[str]
    trace: list[TraceStep]
    score: float
    normalized_score: float

    @property
    def answer(self) -> str:
        return " ".join(t for t in self.tokens if t != EOS_TOKEN_SENTINEL)

    def to_dict(self, question: str | None = None) -> dict:
        payload = {
            "answer": self.answer,
            "score": self.score,
            "normalized_score": self.normalized_score,
            "trace": [step.to_dict() for step in self.trace],
        }
        if question is not None:
            payload = {"question": question, **payload}
        return payload


def generate(question: str, passage: str, model: AnswerModel,
             kb: KnowledgeBase | None = None, beam_size: int = 4,
             max_len: int = 120, n_facts: int = 1000,
             knowledge_enabled: bool = True,
             passage_limit: int = EncodeLimits().passage) -> GenerationResult:
    """Generate an answer for a raw (question, passage) pair.

    The pair is encoded as in training: the passage is cut to
    ``passage_limit`` tokens, and an empty question or passage raises
    (EmptyQuestionError, EmptyPassageError). An empty related-fact set is
    not an error; the knowledge source is simply masked for the whole decode.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    example = encode_example(question, passage, "", model.vocab,
                             EncodeLimits(passage=passage_limit))
    facts = []
    if kb is not None and knowledge_enabled and kb.facts:
        facts = resolve_facts(kb, extract_related_facts(
            kb, example.question_tokens, example.passage_tokens, n_facts))
    best = _beam_search(model, example, facts, beam_size, max_len)
    return GenerationResult(tokens=[step.token for step in best.trace], trace=list(best.trace),
                            score=best.score, normalized_score=best.normalized_score())


def _beam_search(model, example, facts, beam_size: int, max_len: int) -> BeamHypothesis:
    vocab = model.vocab
    enc_q = model.encode_question([example.question_ids])
    enc_p = model.encode_passage([example.passage_ids])
    fact_matrix = embed_facts(facts, model.embedding, vocab, model.selector) if facts else None
    words = {Source.QUESTION: example.question_tokens, Source.PASSAGE: example.passage_tokens,
             Source.VOCAB: vocab.token_by_id, Source.KNOWLEDGE: facts}
    carry = model.initial_state(enc_q, enc_p)
    live = [BeamHypothesis(prev_id=BOS)]
    finished: list[BeamHypothesis] = []

    for _ in range(max_len):
        rows = [hyp.row for hyp in live]
        state = StepState(**{f.name: ad.lookup(getattr(carry, f.name), rows)
                             for f in fields(StepState)})
        x = ad.lookup(model.embedding, [hyp.prev_id for hyp in live])
        out = model.step(enc_q, enc_p, state, x)
        s, c_q, c_p = out.state.h, out.state.c_q, out.state.c_p
        p_source = _finite(source_distribution(c_q, c_p, s, x, model.selector,
                                               knowledge_available=bool(facts)).data, "source")
        chosen = [Source.KNOWLEDGE if hyp.pending else Source(int(np.argmax(p)) + 1)
                  for hyp, p in zip(live, p_source)]
        fresh = {c for hyp, c in zip(live, chosen) if not hyp.pending}
        probs = {Source.QUESTION: out.a_q.data, Source.PASSAGE: out.a_p.data}
        if Source.VOCAB in fresh:
            probs[Source.VOCAB] = _finite(vocab_distribution(c_q, c_p, s, model.selector).data,
                                          "vocabulary")
        if Source.KNOWLEDGE in fresh:
            probs[Source.KNOWLEDGE] = _finite(fact_distribution(fact_matrix, s,
                                                                model.selector).data, "fact")

        candidates: list[BeamHypothesis] = []
        for i, (hyp, source) in enumerate(zip(live, chosen)):
            if hyp.pending:
                source_prob = 1.0
                picks = [(hyp.pending[0], 1.0, hyp.trace[-1].fact_id, hyp.pending[1:])]
            else:
                source_prob = float(p_source[i, source - 1])
                picks = _top_tokens(source, probs[source][i], words[source], beam_size)
            for token, word_prob, fact_id, tail in picks:
                step = TraceStep(token=token, source_probs=tuple(p_source[i].tolist()),
                                 chosen=source, source_prob=source_prob,
                                 word_prob=word_prob, fact_id=fact_id,
                                 continuation=bool(hyp.pending))
                candidates.append(BeamHypothesis(
                    prev_id=vocab.encode(token), row=i,
                    score=hyp.score + step.log_prob, pending=tail,
                    trace=hyp.trace + (step,)))

        if not candidates:
            break
        candidates.sort(key=lambda h: -h.score)
        kept = candidates[:beam_size]
        finished.extend(h for h in kept if h.finished)
        live = [h for h in kept if not h.finished]
        if not live:
            break
        carry = out.state

    pool = finished + live
    return max(pool, key=lambda h: (h.normalized_score(), -len(h.trace)))


def _finite(probs: np.ndarray, name: str) -> np.ndarray:
    """``probs``, checked for NaN and inf before argmax or log reads it.

    The primitives do not check their outputs. The source distribution reads
    both attention contexts, so its check also covers the question and
    passage attention weights that the copy sources pick from.
    """
    if not np.isfinite(probs).all():
        raise NonFiniteValueError(f"non-finite {name} distribution in beam search")
    return probs


def _top_tokens(source: Source, probs: np.ndarray, words, beam_size: int):
    """The ``beam_size`` most likely (token, word_prob, fact_id, object_tail)
    picks of one source, where ``probs[i]`` is the probability of
    ``words[i]``: a question or passage token, a vocabulary entry, or a fact
    whose first object token is emitted and the rest queued as the tail.
    Copy sources pool the mass of repeated tokens first. Ties rank by
    position, or by token for the copy sources."""
    if source in (Source.QUESTION, Source.PASSAGE):
        mass: dict[str, float] = {}
        for weight, token in zip(probs.tolist(), words):
            mass[token] = mass.get(token, 0.0) + weight
        words = sorted(mass)
        probs = np.array([mass[token] for token in words])
    order = np.argsort(-probs, kind="stable")
    if source == Source.VOCAB:
        order = order[(order != PAD) & (order != BOS)]  # never useful at decode time
    picks = []
    for i in order[:beam_size]:
        if probs[i] <= 0.0:
            break
        if source == Source.KNOWLEDGE:
            fact = words[i]
            picks.append((fact.object[0], float(probs[i]), fact.fact_id, fact.object[1:]))
        else:
            picks.append((words[i], float(probs[i]), None, ()))
    return picks


# ---------------------------------------------------------------------------
# Trace rendering, one row per source plus the chosen-source row.
# ---------------------------------------------------------------------------

def render_trace(trace) -> str:
    """Aligned text table of per-token source percentages."""
    if not trace:
        raise ValueError("empty trace")
    headers = ["token"] + [step.token for step in trace]
    rows = [headers]
    for source in Source:
        row = [SOURCE_LABELS[source]]
        for step in trace:
            row.append(f"{step.source_probs[source - 1] * 100:.2f}")
        rows.append(row)
    chosen_row = ["chosen"]
    for step in trace:
        label = SOURCE_LABELS[step.chosen]
        chosen_row.append(label + "*" if step.continuation else label)
    rows.append(chosen_row)

    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def write_predictions(path, results: list[tuple[str, GenerationResult]]) -> None:
    """Write {question, answer, trace} JSONL records, replacing ``path``."""
    replace_file(path, ((json.dumps(result.to_dict(question)) + "\n").encode("utf-8")
                        for question, result in results))
