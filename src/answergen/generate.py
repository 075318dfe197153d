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
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyQuestionError
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
from .text import BOS, EOS, PAD, EOS_TOKEN_SENTINEL, tokenize

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


@dataclass
class BeamHypothesis:
    state: StepState
    prev_id: int
    tokens: tuple[str, ...] = ()
    score: float = 0.0
    pending: tuple[str, ...] = ()
    pending_fact: int | None = None
    trace: tuple[TraceStep, ...] = ()
    finished: bool = False

    def normalized_score(self) -> float:
        return self.score / max(1, len(self.trace))


@dataclass
class GenerationResult:
    tokens: list[str]
    trace: list[TraceStep]
    score: float
    normalized_score: float
    beam_size: int

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
             knowledge_enabled: bool = True) -> GenerationResult:
    """Generate an answer for a raw (question, passage) pair.

    An empty related-fact set is not an error; the knowledge source is
    simply masked for the whole decode.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    q_tokens = tokenize(question)
    if not q_tokens:
        raise EmptyQuestionError("question has no tokens")
    p_tokens = tokenize(passage) or ["."]

    vocab = model.vocab
    q_ids = [vocab.encode(t) for t in q_tokens]
    p_ids = [vocab.encode(t) for t in p_tokens]

    facts = []
    if kb is not None and knowledge_enabled and kb.facts:
        facts = resolve_facts(kb, extract_related_facts(kb, q_tokens, p_tokens, n_facts))

    enc_q = model.encode_question(q_ids)
    enc_p = model.encode_passage(p_ids)
    fact_matrix = embed_facts(facts, model.embedding, vocab, model.selector) \
        if facts else None

    def run(width: int) -> BeamHypothesis:
        return _beam_search(model, enc_q, enc_p, q_tokens, p_tokens, facts,
                            fact_matrix, width, max_len)

    best = run(beam_size)
    if beam_size > 1:
        greedy = run(1)
        if greedy.normalized_score() > best.normalized_score():
            best = greedy
    return GenerationResult(
        tokens=list(best.tokens),
        trace=list(best.trace),
        score=best.score,
        normalized_score=best.normalized_score(),
        beam_size=beam_size,
    )


def _beam_search(model, enc_q, enc_p, q_tokens, p_tokens, facts, fact_matrix,
                 beam_size: int, max_len: int) -> BeamHypothesis:
    live = [BeamHypothesis(state=model.initial_state(enc_q, enc_p), prev_id=BOS)]
    finished: list[BeamHypothesis] = []

    for _ in range(max_len):
        candidates: list[BeamHypothesis] = []
        for hyp in live:
            x = model.embed_token(hyp.prev_id)
            out = model.step(enc_q, enc_p, hyp.state, x)
            p_source = source_distribution(
                out.c_q, out.c_p, out.s, x, model.selector,
                knowledge_available=bool(facts)).data
            probs4 = tuple(float(v) for v in p_source)

            if hyp.pending:
                token, rest = hyp.pending[0], hyp.pending[1:]
                step = TraceStep(token=token, source_probs=probs4,
                                 chosen=Source.KNOWLEDGE, source_prob=1.0,
                                 word_prob=1.0, fact_id=hyp.pending_fact,
                                 continuation=True)
                candidates.append(BeamHypothesis(
                    state=out.state, prev_id=model.vocab.encode(token),
                    tokens=hyp.tokens + (token,), score=hyp.score,
                    pending=rest, pending_fact=hyp.pending_fact if rest else None,
                    trace=hyp.trace + (step,)))
                continue

            chosen = Source(int(np.argmax(p_source)) + 1)
            source_prob = float(p_source[chosen - 1])

            if chosen == Source.KNOWLEDGE:
                p_fact = fact_distribution(fact_matrix, out.s, model.selector).data
                order = sorted(range(len(facts)), key=lambda i: (-p_fact[i], i))
                for idx in order[:beam_size]:
                    fact = facts[idx]
                    word_prob = float(p_fact[idx])
                    if word_prob <= 0.0:
                        continue
                    token = fact.object[0]
                    rest = tuple(fact.object[1:])
                    step = TraceStep(token=token, source_probs=probs4,
                                     chosen=chosen, source_prob=source_prob,
                                     word_prob=word_prob, fact_id=fact.fact_id)
                    candidates.append(BeamHypothesis(
                        state=out.state, prev_id=model.vocab.encode(token),
                        tokens=hyp.tokens + (token,),
                        score=hyp.score + math.log(source_prob * word_prob),
                        pending=rest, pending_fact=fact.fact_id if rest else None,
                        trace=hyp.trace + (step,)))
                continue

            expansions = _top_tokens(chosen, out, model, q_tokens, p_tokens, beam_size)
            for token, word_prob, feedback_id in expansions:
                step = TraceStep(token=token, source_probs=probs4, chosen=chosen,
                                 source_prob=source_prob, word_prob=word_prob)
                candidates.append(BeamHypothesis(
                    state=out.state, prev_id=feedback_id,
                    tokens=hyp.tokens + (token,),
                    score=hyp.score + math.log(source_prob * word_prob),
                    trace=hyp.trace + (step,),
                    finished=(token == EOS_TOKEN_SENTINEL)))

        if not candidates:
            break
        candidates.sort(key=lambda h: -h.score)
        kept = candidates[:beam_size]
        finished.extend(h for h in kept if h.finished)
        live = [h for h in kept if not h.finished]
        if not live:
            break

    pool = finished + live
    return max(pool, key=lambda h: (h.normalized_score(), -len(h.trace)))


def _top_tokens(source: Source, out, model, q_tokens, p_tokens, beam_size: int):
    """Top (token, prob, feedback_id) entries of a non-knowledge source."""
    vocab = model.vocab
    if source == Source.VOCAB:
        probs = vocab_distribution(out.c_q, out.c_p, out.s, model.selector).data
        order = np.argsort(-probs, kind="stable")
        picks = []
        for token_id in order:
            if token_id in (PAD, BOS):  # never useful at decode time
                continue
            if probs[token_id] <= 0.0:
                break
            picks.append((vocab.decode(int(token_id)), float(probs[token_id]), int(token_id)))
            if len(picks) == beam_size:
                break
        return picks
    attention = out.a_q.data if source == Source.QUESTION else out.a_p.data
    tokens = q_tokens if source == Source.QUESTION else p_tokens
    mass: dict[str, float] = {}
    for weight, token in zip(attention, tokens):
        mass[token] = mass.get(token, 0.0) + float(weight)
    ranked = sorted(mass.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(tok, p, vocab.encode(tok)) for tok, p in ranked[:beam_size] if p > 0.0]


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
