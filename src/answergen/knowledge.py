"""Knowledge-triple store: TSV ingestion and related-fact extraction.

A fact scores against a (question, passage) pair by three additive rules:
+4 when its subject occurs in the question and its object in the passage,
+2 when subject and object both occur in the passage, and +1 when the
subject occurs in either text. A phrase occurs in a text when it is one of
the text's contiguous runs of lowercased tokens (its n-grams), so each rule
is a set-membership test. A query builds each text's set of runs of a given
length once, on first use. Facts that only match through their object score
0 and are dropped.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import DataError
from .text import tokenize


@dataclass(frozen=True)
class Fact:
    subject: tuple[str, ...]
    relation: int
    object: tuple[str, ...]
    fact_id: int


@dataclass
class KnowledgeBase:
    facts: list[Fact] = field(default_factory=list)
    relation_names: list[str] = field(default_factory=list)
    surface_index: dict[str, list[int]] = field(default_factory=dict)
    skipped_lines: list[int] = field(default_factory=list)  # line numbers, from 1

    def relation_name(self, fact: Fact) -> str:
        return self.relation_names[fact.relation]


@dataclass(frozen=True)
class ScoredFact:
    fact_id: int
    score: int


def ingest_triples(path) -> KnowledgeBase:
    """Load tab-separated (subject, relation, object) lines in file order.

    Malformed lines (not three tab-separated fields, or an empty one) are
    skipped rather than aborting the load, and their line numbers kept in
    ``skipped_lines``; real dumps always contain a few.
    """
    kb = KnowledgeBase()
    relation_ids: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                kb.skipped_lines.append(lineno)
                continue
            subject = tuple(tokenize(parts[0]))
            relation = parts[1].strip()
            obj = tuple(tokenize(parts[2]))
            if not subject or not relation or not obj:
                kb.skipped_lines.append(lineno)
                continue
            if relation not in relation_ids:
                relation_ids[relation] = len(kb.relation_names)
                kb.relation_names.append(relation)
            fact = Fact(subject, relation_ids[relation], obj, fact_id=len(kb.facts))
            kb.facts.append(fact)
            for token in set(subject) | set(obj):
                kb.surface_index.setdefault(token, []).append(fact.fact_id)
    return kb


class RunSets(dict):
    """One text's contiguous token runs (n-grams), a set per run length, each
    built on first use.

    A text shorter than a length has no runs of it, and no text has a run of
    length 0: ``zip()`` over no slices is empty, so an empty phrase never
    occurs.
    """

    def __init__(self, tokens: Sequence[str]):
        super().__init__()
        self.tokens = tokens

    def __missing__(self, length: int) -> set[tuple[str, ...]]:
        runs = self[length] = set(zip(*(self.tokens[i:] for i in range(length))))
        return runs


def score_fact(fact: Fact, q_runs: RunSets, p_runs: RunSets) -> int:
    subject, obj = fact.subject, fact.object
    subj_in_q = subject in q_runs[len(subject)]
    subj_in_p = subject in p_runs[len(subject)]
    obj_in_p = obj in p_runs[len(obj)]
    score = 0
    if subj_in_q and obj_in_p:
        score += 4
    if subj_in_p and obj_in_p:
        score += 2
    if subj_in_q or subj_in_p:
        score += 1
    return score


def extract_related_facts(kb: KnowledgeBase, q_tokens: Sequence[str],
                          p_tokens: Sequence[str], n_facts: int) -> list[ScoredFact]:
    """Top-n_facts facts by score, descending, ties broken by ascending id."""
    if n_facts < 1:
        raise DataError(f"n_facts must be >= 1, got {n_facts}")
    candidate_ids: set[int] = set()
    for token in set(q_tokens) | set(p_tokens):
        candidate_ids.update(kb.surface_index.get(token, ()))
    q_runs, p_runs = RunSets(q_tokens), RunSets(p_tokens)
    ranked = []
    for fact_id in candidate_ids:
        score = score_fact(kb.facts[fact_id], q_runs, p_runs)
        if score > 0:
            ranked.append((-score, fact_id))
    ranked.sort()
    return [ScoredFact(fact_id, -neg_score) for neg_score, fact_id in ranked[:n_facts]]


def resolve_facts(kb: KnowledgeBase, scored: Sequence[ScoredFact]) -> list[Fact]:
    return [kb.facts[sf.fact_id] for sf in scored]
