"""Benchmark workloads: each writes a JSONL dataset and a kb.tsv from a seed.

The program only ever sees the written files; everything here is input
generation and runs before set-up is timed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: str                  # "desk" or "full" config defaults
    overrides: dict = field(default_factory=dict)
    records: int = 200            # training dataset size written to disk
    train_steps: int = 4          # steps per train round, one fixed batch each
    requests: int = 400           # distinct generate requests written to disk
    chunk: int = 25               # generate requests per cycle
    setup_reps: int = 5           # set-ups per run; setup_s is their median
    # training.seed: model init, batch order and Gumbel noise. It is fixed per
    # workload, not taken from --seed, because at the initial weights it decides
    # which source the decoder picks and so how much work each answer does.
    # Each value here makes the knowledge source win some decoder steps.
    model_seed: int = 0


WORKLOADS = {
    "kb-dense": Workload(
        name="kb-dense",
        why="desk dims, ~30K-triple KB, 256 related facts per query with "
            "2-3 token objects: fact retrieval, embedding and selection dominate "
            "on top of the small-node tape and beam-loop overhead",
        profile="desk",
        overrides={"knowledge.max_facts": 256, "data.vocab_size": 512,
                   "data.answer_limit": 20},
        records=120,
        model_seed=3,
        train_steps=2,
    ),
    "full-dims": Workload(
        name="full-dims",
        why="full dims (300/256/500), ~5K vocabulary, 80-word passages: dense "
            "lookup gradients, vocabulary head and Adam outgrow the caches",
        profile="full",
        overrides={"data.vocab_size": 5000, "data.answer_limit": 8,
                   "training.batch_size": 1},
        train_steps=1,
        requests=200,
        chunk=17,       # so 100 answers take 6 cycles, and so 6 train rounds
        setup_reps=3,
    ),
}


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> tuple[Path, Path, Path]:
    """Write data.jsonl (training records), requests.jsonl (generate
    requests, none of them in the training data) and kb.tsv for ``workload``
    under ``out_dir``."""
    make = _kb_dense if workload.name == "kb-dense" else _full_dims
    records, kb_lines = make(workload.records + workload.requests, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path, requests_path = out_dir / "data.jsonl", out_dir / "requests.jsonl"
    kb_path = out_dir / "kb.tsv"
    for path, part in ((data_path, records[:workload.records]),
                       (requests_path, records[workload.records:])):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in part:
                fh.write(json.dumps(rec) + "\n")
    with open(kb_path, "w", encoding="utf-8") as fh:
        for subject, relation, obj in kb_lines:
            fh.write(f"{subject}\t{relation}\t{obj}\n")
    return data_path, requests_path, kb_path


SYLLABLES = [c + v for c in "bdfgklmnprstv" for v in "aeiou"]


def _words(rng: np.random.Generator, n: int, prefix: str) -> list[str]:
    """n distinct three-syllable lowercase tokens starting with ``prefix``."""
    out: list[str] = []
    seen = set()
    while len(out) < n:
        for row in rng.integers(0, len(SYLLABLES), size=(n, 3)):
            word = prefix + "".join(SYLLABLES[i] for i in row)
            if word not in seen and len(out) < n:
                seen.add(word)
                out.append(word)
    return out


KB_SUBJECTS = 120
KB_FACTS_PER_SUBJECT = 250
KB_RELATIONS = 12


def _kb_dense(n_records: int, seed: int):
    """Every question and passage names subjects with 250 facts each.

    A query names three subjects, so about 750 facts score above zero and
    the top 256 are returned. The answer's own fact has its object in the
    passage, which ranks it first. Object tokens also occur in other
    passages, so some candidates reached through the object index score 0.
    """
    rng = np.random.default_rng(seed)
    subjects = _words(rng, KB_SUBJECTS, "s")
    relations = [f"rel{i}" for i in range(KB_RELATIONS)]
    objects = _words(rng, 1500, "o")
    fillers = ["the", "a", "of", "is", "in", "and", "was", "near", "with", "it"]
    n_facts = KB_SUBJECTS * KB_FACTS_PER_SUBJECT
    n_tokens = rng.integers(2, 4, size=n_facts)
    object_ids = rng.integers(0, len(objects), size=(n_facts, 3))
    relation_ids = rng.integers(0, KB_RELATIONS, size=n_facts)
    kb_lines = [(subjects[i // KB_FACTS_PER_SUBJECT], relations[relation_ids[i]],
                 " ".join(objects[j] for j in object_ids[i, :n_tokens[i]]))
                for i in range(n_facts)]
    order = rng.permutation(len(kb_lines))
    kb_lines = [kb_lines[int(i)] for i in order]

    records = []
    for _ in range(n_records):
        subject, relation, obj = kb_lines[int(rng.integers(len(kb_lines)))]
        others = [subjects[int(i)] for i in rng.choice(len(subjects), 2, replace=False)]
        words = others + obj.split()
        words += [fillers[int(i)] for i in rng.integers(0, len(fillers), 8)]
        words += [objects[int(i)] for i in rng.integers(0, len(objects), 6)]
        rng.shuffle(words)
        records.append({
            "question": f"what is the {relation} of {subject} ?",
            "passage": " ".join(words) + " .",
            "answer": f"{subject} {relation} is {obj} .",
        })
    return records, kb_lines


def _full_dims(n_records: int, seed: int):
    """Near-uniform 6K-word lexicon, so the capped 5K vocabulary is full.

    Passages are 80 lexicon words; answers are 8 tokens mixing a question
    entity, a knowledge object and a passage span; one fact per record.
    """
    rng = np.random.default_rng(seed)
    lexicon = _words(rng, 6000, "")
    kb_lines = []
    records = []
    for i in range(n_records):
        entity = f"ent{i}"
        nonce = f"zq{i}x"
        kb_lines.append((entity, "IsA", nonce))
        passage = [lexicon[int(j)] for j in rng.integers(0, len(lexicon), 80)]
        start = int(rng.integers(0, 80 - 4))
        span = passage[start:start + 4]
        records.append({
            "question": f"what does the record say about {entity} ?",
            "passage": " ".join(passage) + " .",
            "answer": f"{entity} is {nonce} : " + " ".join(span) + " .",
        })
    return records, kb_lines
