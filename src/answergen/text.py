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
from .files import read_lines, replace_file

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
        self.segments = SegmentTable(self.id_by_token)

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
        """The vocabulary `save` wrote: string tokens and an int size >= 4."""
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            tokens, max_size = payload["tokens"], payload["max_size"]
            if (isinstance(tokens, list) and all(isinstance(tok, str) for tok in tokens)
                    and type(max_size) is int and max_size >= len(SPECIAL_TOKENS)):
                return cls(tokens, max_size)
        except (ValueError, KeyError, TypeError):
            pass
        raise CorruptFileError(f"{path} is not a vocabulary file")


class SegmentTable(dict):
    """Fact segments numbered on first sight: ``table[segment]`` is its number
    n, and ``ids[bounds[n]:bounds[n + 1]]`` its token ids (OOV as UNK), end
    to end. `rows` writes the segments numbered since it last ran; the arrays
    grow by doubling, so they hold about the segments' total length."""

    def __init__(self, id_by_token: dict[str, int]):
        super().__init__()
        self._id_by_token, self._new = id_by_token, []
        self.ids, self.bounds = np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp)

    def __missing__(self, segment: tuple[str, ...]) -> int:
        self._new.append(segment)
        n = self[segment] = len(self)
        return n

    def rows(self, numbers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Segments ``numbers`` in the layout of `padded`: their ids filled
        out with PAD to the longest of them, and the mask of their own ids."""
        if self._new:
            new, self._new, n = self._new, [], len(self)
            ids = [self._id_by_token.get(t, UNK) for seg in new for t in seg]
            start = self.bounds[n - len(new)]
            if start + len(ids) > len(self.ids):
                self.ids = np.resize(self.ids, 2 * (start + len(ids)))
            if n >= len(self.bounds):
                self.bounds = np.resize(self.bounds, 2 * n + 1)
            self.ids[start:start + len(ids)] = ids
            self.bounds[n - len(new) + 1:n + 1] = start + np.cumsum([len(seg) for seg in new])
        starts, ends = self.bounds[numbers][:, None], self.bounds[numbers + 1][:, None]
        filled = np.arange((ends - starts).max()) < ends - starts
        at = np.minimum(starts + np.arange(filled.shape[1]), len(self.ids) - 1)
        return np.where(filled, self.ids[at], PAD), filled


def build_vocab(corpus: Iterable[Sequence[str]], max_size: int) -> Vocabulary:
    """Keep the top max_size-4 tokens by frequency, ties broken lexicographically."""
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


def padded(rows: Sequence[Sequence[int]], fill: int) -> tuple[np.ndarray, np.ndarray]:
    """The ragged layout of a batch: ``rows`` as one (len(rows), longest) int
    array filled out with ``fill``, and the bool array of the same shape
    that is True at the rows' own entries."""
    lengths = np.array([len(row) for row in rows], dtype=np.intp)
    filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
    out = np.full(filled.shape, fill, dtype=np.intp)
    out[filled] = [x for row in rows for x in row]
    return out, filled


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
    for lineno, line in read_lines(path):
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
    line: int = 0  # its line in the JSONL file, from 1; 0 when it came from no file


def read_json_objects(path) -> Iterator[tuple[int, dict]]:
    """The JSON object on each non-blank line of ``path``, with its line
    number; a line that holds anything else raises MalformedLineError."""
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise MalformedLineError(lineno, "invalid JSON", path) from None
        if not isinstance(obj, dict):
            raise MalformedLineError(lineno, "not a JSON object", path)
        yield lineno, obj


def record_text(obj: dict, name: str, lineno: int, path, default: str | None = None) -> str:
    """Field ``name`` of the JSONL record on line ``lineno``, ``default`` if absent: a
    string, or for the passage also a list of strings, joined by spaces. Anything else
    (absent without a default too) raises MalformedLineError naming line and field."""
    value = obj.get(name, default)
    if name == "passage" and isinstance(value, list) and all(isinstance(v, str) for v in value):
        value = " ".join(value)
    if isinstance(value, str):
        return value
    if name not in obj:
        raise MalformedLineError(lineno, f"missing {name} field", path)
    kinds = "a string or a list of strings" if name == "passage" else "a string"
    raise MalformedLineError(lineno, f"{name} must be {kinds}, got {json.dumps(value)}", path)


def load_jsonl_dataset(path) -> list[RawRecord]:
    """Read {"question", "passage", "answer"} records, each with its line
    number; the answer may be absent."""
    return [RawRecord(record_text(obj, "question", lineno, path),
                      record_text(obj, "passage", lineno, path),
                      record_text(obj, "answer", lineno, path, default=""), lineno)
            for lineno, obj in read_json_objects(path)]
