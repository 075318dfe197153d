import math

import numpy as np
import pytest

from answergen import autodiff as ad
from answergen.config import ModelConfig, RunConfig, TrainingConfig
from answergen.errors import EmptyPassageError, EmptyQuestionError, NonFiniteValueError
from answergen.generate import (
    GenerationResult,
    TraceStep,
    _top_tokens,
    generate,
    render_trace,
    trace_score,
)
from answergen.knowledge import KnowledgeBase
from answergen.model import AnswerModel
from answergen.selectors import Source
from answergen.text import EncodeLimits, build_vocab, encode_example, tokenize
from answergen.training import TrainItem, load_checkpoint, restore_model, save_checkpoint, train

from conftest import make_model


def make_kb(triples):
    kb = KnowledgeBase()
    for subject, relation, obj in triples:
        kb.add(tuple(subject.split()), relation, tuple(obj.split()))
    return kb


def test_generate_is_deterministic(vocab):
    model = make_model(vocab, seed=0)
    a = generate("what is the bridge ?", "the bridge is safe .", model, beam_size=4, max_len=8)
    b = generate("what is the bridge ?", "the bridge is safe .", model, beam_size=4, max_len=8)
    assert a.answer == b.answer
    assert a.score == b.score


def test_generate_respects_length_limit(vocab):
    model = make_model(vocab, seed=1)
    result = generate("what is the bridge ?", "the bridge .", model, beam_size=2, max_len=5)
    assert len(result.trace) <= 5


def test_generate_empty_question(vocab):
    model = make_model(vocab, seed=0)
    with pytest.raises(EmptyQuestionError):
        generate("", "the bridge .", model)


def test_long_passage_decodes_like_its_truncation(vocab):
    """The passage is cut to passage_limit tokens before anything reads it,
    fact retrieval included, as in training."""
    model = make_model(vocab, seed=3)
    kb = make_kb([("bridge", "IsA", "strong water"), ("water", "IsA", "safe")])
    head = "the old bridge is safe and helps you ."
    passage = head + " cross water " * 20
    cut = generate("what is the bridge ?", passage, model, kb=kb, beam_size=4,
                   max_len=8, passage_limit=len(tokenize(head)))
    short = generate("what is the bridge ?", head, model, kb=kb, beam_size=4, max_len=8)
    full = generate("what is the bridge ?", passage, model, kb=kb, beam_size=4, max_len=8)
    assert cut.to_dict() == short.to_dict()
    assert cut.to_dict() != full.to_dict()


@pytest.mark.parametrize("weight, chosen, name", [
    ("dec.w_h", None, "source"),
    ("sel.w_vocab", Source.VOCAB, "vocabulary"),
    ("sel.w_fact", Source.KNOWLEDGE, "fact"),
])
def test_a_nan_weight_after_restore_fails_the_decode_step_check(vocab, tmp_path,
                                                                weight, chosen, name):
    """Beam search checks each step's source distribution and each freshly
    chosen head's before argmax or log reads them. A NaN in a head's own
    weight leaves the source distribution finite, so only the head's check
    sees it; ``chosen`` is the source a large bias makes every step pick."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_model(vocab, seed=0), step=0, config=RunConfig.desk(), path=path)
    model = make_model(vocab, seed=1)
    restore_model(model, load_checkpoint(path))
    if chosen is not None:
        model.parameters["sel.b_source"].data[chosen - 1] = 50.0
    model.parameters[weight].data.flat[0] = np.nan
    kb = make_kb([("bridge", "IsA", "strong water")])
    with pytest.raises(NonFiniteValueError, match=f"non-finite {name} distribution"):
        generate("what is the bridge ?", "the bridge is safe .", model, kb=kb,
                 beam_size=4, max_len=8)


def test_decoding_checks_finiteness_per_step_not_per_primitive(vocab, monkeypatch):
    """About 50 primitives run per decoder step; finiteness is checked on at
    most the source distribution and the two heads, plus the Tensor
    constructions of set-up."""
    model = make_model(vocab, seed=3)
    kb = make_kb([("bridge", "IsA", "strong water"), ("water", "IsA", "safe")])
    counts = {"steps": 0, "isfinite": 0}
    step, isfinite = model.step, np.isfinite

    def counted_step(*args, **kwargs):
        counts["steps"] += 1
        return step(*args, **kwargs)

    def counted_isfinite(*args, **kwargs):
        counts["isfinite"] += 1
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(model, "step", counted_step)
    monkeypatch.setattr(np, "isfinite", counted_isfinite)
    generate("what is the bridge ?", "the old bridge is safe .", model, kb=kb,
             beam_size=4, max_len=8)
    assert counts["steps"] >= 4
    assert counts["isfinite"] <= 3 * counts["steps"] + 10, counts


def test_generate_computes_no_coverage_penalty(vocab, monkeypatch):
    """The penalty is a training term: beam search makes no minimum call."""
    calls = []
    minimum = ad.minimum
    monkeypatch.setattr(ad, "minimum", lambda *args: calls.append(args) or minimum(*args))
    result = generate("what is the bridge ?", "the old bridge is safe .", make_model(vocab, seed=3),
                      kb=make_kb([("bridge", "IsA", "strong water")]), beam_size=4, max_len=8)
    assert result.trace and not calls


def test_generate_empty_passage(vocab):
    model = make_model(vocab, seed=0)
    for passage in ("", "   "):
        with pytest.raises(EmptyPassageError):
            generate("what is the bridge ?", passage, model)


def test_no_facts_is_not_an_error(vocab):
    model = make_model(vocab, seed=2)
    result = generate("what is the bridge ?", "the bridge .", model, kb=None,
                      beam_size=2, max_len=6)
    assert all(step.chosen != Source.KNOWLEDGE for step in result.trace)
    for step in result.trace:
        assert step.source_probs[3] == 0.0


def test_trace_score_matches_beam_score(vocab):
    for seed in range(4):
        model = make_model(vocab, seed=seed)
        result = generate("what is the bridge ?", "the old bridge is safe .",
                          model, beam_size=3, max_len=8)
        assert trace_score(result.trace) == pytest.approx(result.score, abs=1e-12)


def test_beam_never_scores_below_greedy(vocab):
    for seed in range(5):
        model = make_model(vocab, seed=seed)
        greedy = generate("what is the bridge ?", "the bridge is safe .",
                          model, beam_size=1, max_len=8)
        wide = generate("what is the bridge ?", "the bridge is safe .",
                        model, beam_size=4, max_len=8)
        assert wide.normalized_score >= greedy.normalized_score - 1e-12


def test_trace_probabilities_are_simplex(vocab):
    model = make_model(vocab, seed=3)
    kb = make_kb([("bridge", "IsA", "strong water")])
    result = generate("what is the bridge ?", "the bridge is safe .", model,
                      kb=kb, beam_size=2, max_len=6)
    for step in result.trace:
        assert abs(sum(step.source_probs) - 1.0) < 1e-9
        assert all(p >= 0 for p in step.source_probs)


def test_knowledge_object_emitted_atomically(vocab):
    """Once a fact is selected its whole object comes out verbatim, one
    decoder step per token, with no new source decision in between."""
    model = make_model(vocab, seed=4)
    model.selector.b_source.data[:] = [0.0, 0.0, 0.0, 10.0]  # force knowledge
    kb = make_kb([("bridge", "IsA", "strong old water")])
    result = generate("what is the bridge ?", "the bridge .", model, kb=kb,
                      beam_size=1, max_len=7)
    assert result.tokens[:3] == ["strong", "old", "water"]
    first, second, third = result.trace[:3]
    assert first.chosen == Source.KNOWLEDGE and not first.continuation
    assert first.fact_id == 0 and first.word_prob == pytest.approx(1.0)
    for step in (second, third):
        assert step.continuation
        assert step.chosen == Source.KNOWLEDGE
        assert step.source_prob == 1.0 and step.word_prob == 1.0
        assert step.log_prob == 0.0
    # the object repeats because the source is pinned; each burst is atomic
    assert trace_score(result.trace) == pytest.approx(result.score, abs=1e-12)


def test_oov_copy_emits_raw_surface_form(vocab):
    model = make_model(vocab, seed=5)
    model.selector.b_source.data[:] = [10.0, 0.0, 0.0, 0.0]  # force question copy
    result = generate("zyzzyva zyzzyva", "the bridge .", model, beam_size=1, max_len=3)
    assert result.tokens == ["zyzzyva", "zyzzyva", "zyzzyva"]
    assert "zyzzyva" not in vocab.id_by_token


def copy_readout(source, attention, tokens):
    """The beam's word distribution for a copy source, as {token: prob}."""
    picks = _top_tokens(source, np.asarray(attention, dtype=float), tokens,
                        beam_size=len(tokens))
    for _, _, fact_id, object_tail in picks:
        assert fact_id is None and object_tail == ()
    return {token: prob for token, prob, _, _ in picks}


def test_copy_distribution_aggregates_duplicates():
    dist = copy_readout(Source.QUESTION, [0.6, 0.4], ["bridge", "bridge"])
    assert dist == {"bridge": pytest.approx(1.0)}


def test_copy_distribution_keeps_a_nul_token():
    """The tokenizer emits "\x00" as a token of its own; pooling keeps it
    as it is, apart from every other token."""
    assert tokenize("a \x00 b") == ["a", "\x00", "b"]
    dist = copy_readout(Source.PASSAGE, [0.5, 0.2, 0.3], ["\x00", "a", "\x00"])
    assert dist == {"\x00": pytest.approx(0.8), "a": pytest.approx(0.2)}


def test_passage_distribution_distinct_tokens():
    dist = copy_readout(Source.PASSAGE, [0.5, 0.3, 0.2], ["born", "in", "hawaii"])
    assert dist == {"born": pytest.approx(0.5), "in": pytest.approx(0.3),
                    "hawaii": pytest.approx(0.2)}


def test_copy_mass_sums_to_one_property():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = rng.integers(1, 8)
        a = rng.dirichlet(np.ones(n))
        tokens = [str(rng.integers(0, 3)) for _ in range(n)]
        dist = copy_readout(Source.QUESTION, a, tokens)
        assert abs(sum(dist.values()) - 1.0) < 1e-9
        assert set(dist) == set(tokens)


def test_render_trace_table():
    trace = [
        TraceStep(token="psychopathy", source_probs=(0.6168, 0.3359, 0.0053, 0.042),
                  chosen=Source.QUESTION, source_prob=0.6168, word_prob=0.9),
        TraceStep(token="is", source_probs=(0.0034, 0.0121, 0.9844, 0.0001),
                  chosen=Source.VOCAB, source_prob=0.9844, word_prob=0.5),
    ]
    table = render_trace(trace)
    lines = table.splitlines()
    assert len(lines) == 6  # header, four sources, chosen
    question_row = next(l for l in lines if l.startswith("question"))
    assert "61.68" in question_row
    vocab_row = next(l for l in lines if l.startswith("vocabulary"))
    assert "98.44" in vocab_row
    chosen_row = lines[-1]
    assert "question" in chosen_row and "vocabulary" in chosen_row


def test_render_trace_rejects_empty():
    with pytest.raises(ValueError):
        render_trace([])


def test_result_answer_drops_eos():
    step = TraceStep(token="<eos>", source_probs=(0.1, 0.1, 0.7, 0.1),
                     chosen=Source.VOCAB, source_prob=0.7, word_prob=0.3)
    result = GenerationResult(tokens=["hi", "<eos>"], trace=[step, step],
                              score=-1.0, normalized_score=-0.5)
    assert result.answer == "hi"


# --- trained copy-task oracle ---

COPY_RECORDS = [
    ("repeat : alpha bravo ?", "noise the records report .", "alpha bravo"),
    ("repeat : charlie delta echo ?", "noise the report is a .", "charlie delta echo"),
    ("repeat : bravo echo ?", "the records report a .", "bravo echo"),
    ("repeat : delta alpha charlie ?", "noise is a report .", "delta alpha charlie"),
]


@pytest.fixture(scope="module")
def trained_copy_model():
    corpus = [tokenize(q) + tokenize(p) for q, p, _ in COPY_RECORDS]
    vocab = build_vocab(corpus, max_size=100)
    examples = [encode_example(q, p, a, vocab, EncodeLimits(passage=30, answer=10))
                for q, p, a in COPY_RECORDS]
    model = AnswerModel(vocab, 1, ModelConfig(emb_dim=16, hidden_dim=16, fact_dim=16),
                        np.random.default_rng(0))
    cfg = TrainingConfig(batch_size=4, lr=5e-3, max_steps=400, lambda_cov=1.0,
                         tau0=1.0, tau_min=0.1, anneal_rate=2e-3, mc_samples=1,
                         seed=0, clip_norm=2.0)
    train(model, [TrainItem(ex, []) for ex in examples], cfg)
    return model


def test_greedy_copies_question_after_overfit(trained_copy_model):
    for q, p, want in COPY_RECORDS:
        result = generate(q, p, trained_copy_model, beam_size=1, max_len=10)
        assert result.answer == want


def test_trace_fidelity_on_trained_model(trained_copy_model):
    q, p, _ = COPY_RECORDS[0]
    result = generate(q, p, trained_copy_model, beam_size=4, max_len=10)
    assert trace_score(result.trace) == pytest.approx(result.score, abs=1e-12)
    assert math.isclose(result.normalized_score,
                        result.score / max(1, len(result.trace)))
