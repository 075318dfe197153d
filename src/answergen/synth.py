"""Synthetic task generator for the desk-scale benchmark suite.

Five tasks stress the four word sources individually and together:

  copy-q     answers are contiguous spans of the question
  copy-p     answers are marked spans of the passage
  vocab-fill answers are fixed templates of corpus-frequent words
  kb-lookup  answers contain a nonce token that exists ONLY in the
             knowledge file: it never appears in any question or passage,
             and since the vocabulary is built from questions and passages
             it is out-of-vocabulary by construction, unreachable without
             the knowledge source
  mixed      answers interleave all four sources
             (question word, vocabulary fillers, knowledge object, passage word)

Each task writes <task>.jsonl plus a small kb.tsv next to it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .files import replace_file

TASKS = ("copy-q", "copy-p", "vocab-fill", "kb-lookup", "mixed")

CONTENT_WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey",
    "yankee", "zulu",
]
TEMPLATES = [
    "all systems nominal .",
    "status report done .",
    "it looks fine .",
]
DECOY_FACTS = [
    ("bridge", "UsedFor", "cross water"),
    ("sun", "IsA", "star"),
    ("hammer", "UsedFor", "drive nails"),
]


@dataclass
class SynthDataset:
    records: list[dict]
    kb_lines: list[tuple[str, str, str]]
    # per-record target object token for kb-lookup/mixed, else None
    targets: list[str | None]


def _nonce(rng: np.random.Generator, index: int) -> str:
    letters = "".join(rng.choice(list("qwzjkxv"), size=5))
    return f"z{letters}{index}"


def _span(rng: np.random.Generator, low: int, high: int) -> list[str]:
    n = int(rng.integers(low, high + 1))
    return [CONTENT_WORDS[int(i)] for i in rng.integers(0, len(CONTENT_WORDS), size=n)]


def _base_passage(rng: np.random.Generator) -> list[str]:
    # sprinkle fillers so they are corpus-frequent and land in the vocabulary
    words = _span(rng, 2, 4) + ["the", "records", "report", "is", "in", "a"]
    rng.shuffle(words)
    return words


def build_synth(task: str, size: int, seed: int) -> SynthDataset:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    records: list[dict] = []
    kb_lines: list[tuple[str, str, str]] = list(DECOY_FACTS)
    targets: list[str | None] = []

    for i in range(size):
        if task == "copy-q":
            span = _span(rng, 3, 5)
            question = "repeat : " + " ".join(span) + " ?"
            passage = " ".join(_base_passage(rng)) + " ."
            answer = " ".join(span)
            targets.append(None)
        elif task == "copy-p":
            span = _span(rng, 3, 5)
            question = "what are the key words ?"
            passage = (" ".join(_base_passage(rng)) + " key : "
                       + " ".join(span) + " .")
            answer = " ".join(span)
            targets.append(None)
        elif task == "vocab-fill":
            word = CONTENT_WORDS[i % len(CONTENT_WORDS)]
            template = TEMPLATES[i % len(TEMPLATES)]
            question = f"status of unit {word} ?"
            passage = ("log : " + " ".join(t.replace(".", "") for t in TEMPLATES).strip()
                       + " . unit " + word + " checked .")
            answer = template
            targets.append(None)
        elif task == "kb-lookup":
            # Answer is the object token plus punctuation: the sources needed
            # per step stay balanced, so the latent selector cannot settle on
            # a single source for the whole answer.
            entity = f"{CONTENT_WORDS[i % len(CONTENT_WORDS)]}{i}"
            nonce = _nonce(rng, i)
            decoy = _nonce(rng, i + size)
            question = f"what is {entity} ?"
            passage = f"records : {entity} appears in the records . it is listed ."
            answer = f"{nonce} ."
            kb_lines.append((entity, "IsA", nonce))
            kb_lines.append((entity, "RelatedTo", decoy))
            targets.append(nonce)
        else:  # mixed
            entity = f"{CONTENT_WORDS[i % len(CONTENT_WORDS)]}{i}"
            nonce = _nonce(rng, i)
            ptok = CONTENT_WORDS[(i + 7) % len(CONTENT_WORDS)]
            question = f"what is {entity} ?"
            passage = f"{entity} is described as {ptok} in a report ."
            answer = f"{entity} is a {nonce} {ptok} ."
            kb_lines.append((entity, "IsA", nonce))
            targets.append(nonce)
        records.append({"question": question, "passage": passage, "answer": answer})

    _assert_nonces_isolated(records, targets)
    return SynthDataset(records=records, kb_lines=kb_lines, targets=targets)


def _assert_nonces_isolated(records, targets) -> None:
    """Construction guarantee: target object tokens never leak into text."""
    text_tokens = set()
    for rec in records:
        text_tokens.update(rec["question"].split())
        text_tokens.update(rec["passage"].split())
    for target in targets:
        assert target is None or target not in text_tokens, target


def synth_generate(task: str, size: int, seed: int, out_dir) -> tuple[Path, Path]:
    """Write <task>.jsonl and kb.tsv under out_dir; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = build_synth(task, size, seed)
    data_path, kb_path = out_dir / f"{task}.jsonl", out_dir / "kb.tsv"
    replace_file(data_path, ((json.dumps(rec) + "\n").encode("utf-8")
                             for rec in dataset.records))
    replace_file(kb_path, (f"{subject}\t{relation}\t{obj}\n".encode("utf-8")
                           for subject, relation, obj in dataset.kb_lines))
    return data_path, kb_path
