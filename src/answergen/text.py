"""Tokenization, vocabulary, dataset encoding and embedding loading.

Everything is lowercased; fact matching in the knowledge store relies on
that. Tokens are word runs (with internal apostrophes) or single
punctuation characters.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyCorpusError,
    EmptyPassageError,
    EmptyQuestionError,
    MalformedLineError,
)
from .files import replace_file

PAD, UNK, BOS, EOS = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")

# Surface form used for the EOS target; the tokenizer splits angle brackets,
# so no real token can collide with it.
EOS_TOKEN_SENTINEL = SPECIAL_TOKENS[EOS]

_TOKEN_RE = re.compile(r"\w+(?:'\w+)*|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercased word/punctuation tokens; deterministic, empty text gives []."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Frequency-capped token table with four reserved specials at ids 0-3."""

    def __init__(self, tokens: Sequence[str], max_size: int):
        if max_size < 4:
            raise EmptyCorpusError(f"max_size {max_size} cannot hold the special tokens")
        self.max_size = max_size
        self.token_by_id: list[str] = list(SPECIAL_TOKENS) + list(tokens)
        if len(self.token_by_id) > max_size:
            raise ValueError("token list exceeds max_size")
        self.id_by_token = {tok: i for i, tok in enumerate(self.token_by_id)}
        if len(self.id_by_token) != len(self.token_by_id):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.token_by_id)

    def encode(self, token: str) -> int:
        return self.id_by_token.get(token, UNK)

    def content_hash(self) -> int:
        """Stable 64-bit hash of the token list, used to pin checkpoints."""
        digest = hashlib.blake2b("\n".join(self.token_by_id).encode("utf-8"),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "little")

    def save(self, path) -> None:
        payload = {"max_size": self.max_size, "tokens": self.token_by_id[4:]}
        replace_file(path, [json.dumps(payload, ensure_ascii=False).encode("utf-8")])

    @classmethod
    def load(cls, path) -> "Vocabulary":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            return cls(payload["tokens"], payload["max_size"])
        except (ValueError, KeyError, TypeError):
            raise CorruptFileError(f"{path} is not a vocabulary file") from None


def build_vocab(corpus: Iterable[Sequence[str]], max_size: int) -> Vocabulary:
    """Keep the top max_size-4 tokens by frequency, ties broken lexicographically."""
    if max_size < 4:
        raise EmptyCorpusError(f"max_size {max_size} cannot hold the special tokens")
    counts: dict[str, int] = {}
    empty = True
    for tokens in corpus:
        empty = False
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
    if empty:
        raise EmptyCorpusError("corpus has no records")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked[: max_size - 4]]
    return Vocabulary(kept, max_size)


@dataclass
class EncodeLimits:
    passage: int = 800
    answer: int = 120


@dataclass
class Example:
    """One encoded (question, passage, answer) instance.

    Raw token strings are kept alongside ids: copy likelihoods and fact
    matching compare surface forms, so OOV words must stay recoverable.
    answer_ids is EOS-terminated; answer_tokens is the raw list without it.
    """
    question_ids: list[int]
    passage_ids: list[int]
    answer_ids: list[int]
    question_tokens: list[str]
    passage_tokens: list[str]
    answer_tokens: list[str]


def encode_example(question: str, passage: str, answer: str, vocab: Vocabulary,
                   limits: EncodeLimits | None = None) -> Example:
    """Tokenize, truncate (passage/answer) and map to vocabulary ids."""
    limits = limits or EncodeLimits()
    q_tokens = tokenize(question)
    if not q_tokens:
        raise EmptyQuestionError("question has no tokens")
    p_tokens = tokenize(passage)[: limits.passage]
    if not p_tokens:
        raise EmptyPassageError("passage has no tokens")
    a_tokens = tokenize(answer)[: limits.answer]
    return Example(
        question_ids=[vocab.encode(t) for t in q_tokens],
        passage_ids=[vocab.encode(t) for t in p_tokens],
        answer_ids=[vocab.encode(t) for t in a_tokens] + [EOS],
        question_tokens=q_tokens,
        passage_tokens=p_tokens,
        answer_tokens=a_tokens,
    )


def load_pretrained_embeddings(path, vocab: Vocabulary, d_emb: int = 300,
                               seed: int = 0) -> np.ndarray:
    """Read a plain-text word-vector file (token then d decimals per line)
    into a (|V|, d) array, d being the file's width (``d_emb`` for an empty file).

    The first valid line fixes the dimension; later lines of another width
    raise DimensionMismatchError, and a value that is not a finite number
    raises MalformedLineError; both name the file and the line. Tokens
    outside the vocabulary are ignored.
    Uncovered rows, specials included, are drawn uniform in [-0.1, 0.1]
    from a generator seeded with ``seed``, so reloads are bit-identical.
    """
    vectors: dict[int, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) < 2:
                raise MalformedLineError(lineno, "expected a token and at least one value", path)
            token, values = parts[0], parts[1:]
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise MalformedLineError(lineno, "non-numeric embedding value", path) from None
            if not np.isfinite(vec).all():  # float() reads "nan", "inf" and 1e999
                raise MalformedLineError(lineno, "non-finite embedding value", path)
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise DimensionMismatchError(
                    f"{path} line {lineno}: {vec.size}-dim vector in a {dim}-dim file")
            token_id = vocab.encode(token)
            if token_id != UNK or token == SPECIAL_TOKENS[UNK]:
                vectors[token_id] = vec
    if dim is None:
        dim = d_emb
    rng = np.random.default_rng(seed)
    data = rng.uniform(-0.1, 0.1, size=(len(vocab), dim))
    for token_id, vec in vectors.items():
        data[token_id] = vec
    return data


@dataclass
class RawRecord:
    question: str
    passage: str
    answer: str = ""


def read_json_objects(path) -> Iterator[tuple[int, dict]]:
    """The JSON object on each non-blank line of ``path``, with its line
    number; a line that holds anything else raises MalformedLineError."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise MalformedLineError(lineno, "invalid JSON", path) from None
            if not isinstance(obj, dict):
                raise MalformedLineError(lineno, "not a JSON object", path)
            yield lineno, obj


def load_jsonl_dataset(path) -> list[RawRecord]:
    """Read {"question", "passage", "answer"} records; a passage given as a
    list of strings is concatenated into one."""
    records: list[RawRecord] = []
    for lineno, obj in read_json_objects(path):
        if "question" not in obj or "passage" not in obj:
            raise MalformedLineError(lineno, "missing question or passage field", path)
        passage = obj["passage"]
        if isinstance(passage, list):
            passage = " ".join(passage)
        records.append(RawRecord(str(obj["question"]), str(passage), str(obj.get("answer", ""))))
    return records
