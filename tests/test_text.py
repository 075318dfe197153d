import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answergen import text
from answergen.errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyCorpusError,
    EmptyQuestionError,
    MalformedLineError,
)
from answergen.text import (
    EOS,
    UNK,
    EncodeLimits,
    Vocabulary,
    build_vocab,
    encode_example,
    load_pretrained_embeddings,
    tokenize,
)


def test_tokenize_question():
    assert tokenize("Was Obama born?") == ["was", "obama", "born", "?"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_trailing_period():
    assert tokenize("Hawaii.") == ["hawaii", "."]


def test_tokenize_keeps_contractions():
    assert tokenize("What's psychopathy?") == ["what's", "psychopathy", "?"]


def test_build_vocab_frequency_and_ties():
    vocab = build_vocab([["a", "a", "b"]], max_size=6)
    assert len(vocab) == 6
    assert vocab.encode("a") == 4  # most frequent non-special
    assert vocab.encode("b") == 5


def test_build_vocab_capacity_zero():
    vocab = build_vocab([["a", "a", "b"]], max_size=4)
    assert len(vocab) == 4
    assert vocab.encode("a") == UNK
    assert vocab.encode("b") == UNK


def test_build_vocab_tie_break_lexicographic():
    vocab = build_vocab([["zeta", "alpha"]], max_size=5)
    assert "alpha" in vocab.id_by_token
    assert "zeta" not in vocab.id_by_token


def test_build_vocab_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        build_vocab([], max_size=10)


@pytest.fixture
def small_vocab():
    corpus = [["the", "cat", "sat", "on", "mat", ".", "?", "what", "is", "a"]]
    return build_vocab(corpus, max_size=50)


def test_encode_truncates_passage(small_vocab):
    passage = " ".join(["cat"] * 1000)
    ex = encode_example("what ?", passage, "the cat", small_vocab,
                        EncodeLimits(passage=800, answer=120))
    assert len(ex.passage_ids) == 800


def test_encode_answer_eos_terminated(small_vocab):
    ex = encode_example("what ?", "the mat", "the cat sat", small_vocab)
    assert len(ex.answer_ids) == 4
    assert ex.answer_ids[-1] == EOS


def test_encode_oov_keeps_raw_token(small_vocab):
    ex = encode_example("what is zyzzyva ?", "the mat", "the cat", small_vocab)
    assert ex.question_ids[2] == UNK
    assert ex.question_tokens[2] == "zyzzyva"


def test_encode_empty_question(small_vocab):
    with pytest.raises(EmptyQuestionError):
        encode_example("", "the mat", "x", small_vocab)


def test_roundtrip_in_vocab(small_vocab):
    for token in ["the", "cat", "sat"]:
        assert small_vocab.token_by_id[small_vocab.encode(token)] == token


@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=40), st.integers(1, 20))
@settings(max_examples=50, deadline=None)
def test_truncation_is_a_prefix(tokens, limit):
    full = " ".join(tokens)
    vocab = build_vocab([tokens], max_size=20)
    ex = encode_example("q ?", full, "", vocab, EncodeLimits(passage=limit, answer=5))
    assert ex.passage_tokens == tokens[:limit]


def test_vocab_save_load_roundtrip(small_vocab, tmp_path):
    path = tmp_path / "vocab.json"
    small_vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.token_by_id == small_vocab.token_by_id
    assert loaded.content_hash() == small_vocab.content_hash()


@pytest.mark.parametrize("content", ["the cat sat", "[1, 2]", '{"tokens": ["a"]}',
                                     '{"tokens": 3, "max_size": 8}'])
def test_vocab_load_rejects_a_file_that_is_not_a_vocabulary(content, tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(content)
    with pytest.raises(CorruptFileError, match="is not a vocabulary file"):
        Vocabulary.load(path)


def test_embeddings_cover_and_fill(small_vocab, tmp_path):
    path = tmp_path / "vectors.txt"
    dim = 300
    with open(path, "w") as fh:
        for tok in ["the", "cat"]:
            fh.write(tok + " " + " ".join(["0.5"] * dim) + "\n")
    vectors = load_pretrained_embeddings(path, small_vocab, d_emb=dim, seed=1)
    assert vectors.shape == (len(small_vocab), 300)
    covered = [small_vocab.encode("the"), small_vocab.encode("cat")]
    np.testing.assert_array_equal(vectors[covered], 0.5)
    # every other row comes from the seeded uniform fill
    assert np.all(np.abs(np.delete(vectors, covered, axis=0)) <= 0.1)


def test_embeddings_empty_file_deterministic(small_vocab, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    a = load_pretrained_embeddings(path, small_vocab, d_emb=8, seed=42)
    b = load_pretrained_embeddings(path, small_vocab, d_emb=8, seed=42)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (len(small_vocab), 8)


def test_embeddings_dimension_mismatch(small_vocab, tmp_path):
    path = tmp_path / "vectors.txt"
    with open(path, "w") as fh:
        fh.write("the " + " ".join(["0.1"] * 300) + "\n")
        fh.write("cat " + " ".join(["0.1"] * 299) + "\n")
    with pytest.raises(DimensionMismatchError):
        load_pretrained_embeddings(path, small_vocab)


def test_embeddings_malformed_line_reports_number(small_vocab, tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("the 0.1 0.2\ncat zero one\n")
    with pytest.raises(MalformedLineError) as exc:
        load_pretrained_embeddings(path, small_vocab)
    assert exc.value.line_number == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_embeddings_non_finite_value_is_a_malformed_line(small_vocab, tmp_path, value):
    """float() reads these, but no embedding may hold them: the error names
    the file and the line instead of failing later as a numeric error."""
    path = tmp_path / "vectors.txt"
    path.write_text(f"the 0.1 0.2\ncat {value} 0.3\n")
    with pytest.raises(MalformedLineError) as exc:
        load_pretrained_embeddings(path, small_vocab)
    assert exc.value.line_number == 2
    assert str(exc.value) == f"{path} line 2: non-finite embedding value"


@pytest.mark.parametrize("second, error, message", [
    ("cat\n", MalformedLineError, "expected a token and at least one value"),
    ("cat zero one\n", MalformedLineError, "non-numeric embedding value"),
    ("cat 0.1\n", DimensionMismatchError, "1-dim vector in a 2-dim file"),
])
def test_embeddings_errors_name_the_file(small_vocab, tmp_path, second, error, message):
    path = tmp_path / "vectors.txt"
    path.write_text("the 0.1 0.2\n" + second)
    with pytest.raises(error) as exc:
        load_pretrained_embeddings(path, small_vocab)
    assert str(exc.value) == f"{path} line 2: {message}"


def test_jsonl_loader_concatenates_passages(tmp_path):
    path = tmp_path / "data.jsonl"
    rec = {"question": "q ?", "passage": ["part one .", "part two ."], "answer": "a"}
    path.write_text(json.dumps(rec) + "\n")
    records = text.load_jsonl_dataset(path)
    assert records[0].passage == "part one . part two ."


def test_jsonl_loader_rejects_bad_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(MalformedLineError):
        text.load_jsonl_dataset(path)


@pytest.mark.parametrize("line", ["3", "[1, 2]", '"text"', "null"])
def test_jsonl_loader_rejects_a_line_that_is_not_an_object(line, tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"question": "q ?", "passage": "p ."}) + "\n\n" + line + "\n")
    with pytest.raises(MalformedLineError, match="not a JSON object") as exc:
        text.load_jsonl_dataset(path)
    assert exc.value.line_number == 3 and str(path) in str(exc.value)
