"""Knowledge-triple store: TSV ingestion and related-fact extraction.

A fact scores against a (question, passage) pair by three additive rules:
+4 when its subject occurs in the question and its object in the passage,
+2 when subject and object both occur in the passage, and +1 when the
subject occurs in either text. A phrase occurs in a text when it is one of
the text's contiguous runs of lowercased tokens (its n-grams), so each rule
is a set-membership test. Every rule needs the subject to occur, so the KB
is indexed by subject: a query looks up the texts' runs at each subject
length the KB holds, tests each subject it finds once, and then only each
of its facts' objects. Facts whose subject occurs in neither text score 0
and are never visited, so the ranking equals that of scoring every fact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple, Sequence

from .errors import DataError
from .files import read_lines
from .text import tokenize


class Fact(NamedTuple):
    subject: tuple[str, ...]
    relation: int
    object: tuple[str, ...]
    fact_id: int


@dataclass
class KnowledgeBase:
    facts: list[Fact] = field(default_factory=list)
    relation_names: list[str] = field(default_factory=list)
    relation_ids: dict[str, int] = field(default_factory=dict)
    # subject length -> subject -> its facts in id order
    by_subject: dict[int, dict[tuple[str, ...], list[Fact]]] = field(default_factory=dict)
    skipped_lines: list[int] = field(default_factory=list)  # line numbers, from 1

    def add(self, subject: tuple[str, ...], relation: str, obj: tuple[str, ...]) -> None:
        """Append a fact with the next id, interning its relation name."""
        if relation not in self.relation_ids:
            self.relation_ids[relation] = len(self.relation_names)
            self.relation_names.append(relation)
        fact = Fact(subject, self.relation_ids[relation], obj, len(self.facts))
        self.facts.append(fact)
        self.by_subject.setdefault(len(subject), {}).setdefault(subject, []).append(fact)

    def relation_name(self, fact: Fact) -> str:
        return self.relation_names[fact.relation]


class ScoredFact(NamedTuple):
    fact_id: int
    score: int


def ingest_triples(path) -> KnowledgeBase:
    """Load tab-separated (subject, relation, object) lines in file order.

    Malformed lines (not three tab-separated fields, or an empty one) are
    skipped rather than aborting the load, and their line numbers kept in
    ``skipped_lines``; real dumps always contain a few.
    """
    kb = KnowledgeBase()
    subject_tokens = cache(lambda text: tuple(tokenize(text)))  # dumps repeat each subject
    for lineno, line in read_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            kb.skipped_lines.append(lineno)
            continue
        subject = subject_tokens(parts[0])
        relation = parts[1].strip()
        obj = tuple(tokenize(parts[2]))
        if not subject or not relation or not obj:
            kb.skipped_lines.append(lineno)
            continue
        kb.add(subject, relation, obj)
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


def score_fact(fact: Fact, subj_in_q: bool, subj_in_p: bool, p_runs: RunSets) -> int:
    """The fact's score, given whether its subject occurs in q and in p."""
    obj_in_p = fact.object in p_runs[len(fact.object)]
    return 4 * (subj_in_q and obj_in_p) + 2 * (subj_in_p and obj_in_p) + (subj_in_q or subj_in_p)


def extract_related_facts(kb: KnowledgeBase, q_tokens: Sequence[str],
                          p_tokens: Sequence[str], n_facts: int) -> list[ScoredFact]:
    """Top-n_facts facts by score, descending, ties broken by ascending id."""
    if n_facts < 1:
        raise DataError(f"n_facts must be >= 1, got {n_facts}")
    q_runs, p_runs = RunSets(q_tokens), RunSets(p_tokens)
    ranked = []
    for length, facts_by_subject in kb.by_subject.items():
        in_q, in_p = q_runs[length], p_runs[length]
        for subject in in_q | in_p:
            subj_in_q, subj_in_p = subject in in_q, subject in in_p
            for fact in facts_by_subject.get(subject, ()):
                ranked.append((-score_fact(fact, subj_in_q, subj_in_p, p_runs), fact.fact_id))
    ranked.sort()
    return [ScoredFact(fact_id, -neg_score) for neg_score, fact_id in ranked[:n_facts]]


def resolve_facts(kb: KnowledgeBase, scored: Sequence[ScoredFact]) -> list[Fact]:
    return [kb.facts[sf.fact_id] for sf in scored]
