"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s or -rA to see them).

The heavyweight criteria (5 and 6) train on the synthetic suite at the desk
profile. They encode it with `training.encode_dataset`, as the CLI does, and
train with `train`, whose per-step callback scores generation every 100 steps
and stops the run once the score meets the threshold.
"""
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from click.testing import CliRunner

from answergen import autodiff as ad
from answergen.cli import main as cli_main
from answergen.config import ModelConfig, RunConfig
from answergen.generate import generate, trace_score
from answergen.knowledge import (
    Fact,
    KnowledgeBase,
    ScoredFact,
    extract_related_facts,
    ingest_triples,
)
from answergen.metrics import bleu_1, rouge_l
from answergen.model import AnswerModel
from answergen.selectors import gumbel_softmax_sample
from answergen.synth import synth_generate
from answergen.text import (
    EncodeLimits,
    Vocabulary,
    build_vocab,
    encode_example,
    load_jsonl_dataset,
    tokenize,
)
from answergen.training import TrainItem, elbo_loss, encode_dataset, train

from test_autodiff import _primitive_case


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. Gradient suite: every primitive and the full objective vs central
#    finite differences, rel. err < 1e-3, in under two minutes.
# ---------------------------------------------------------------------------

def tiny_toy():
    vocab = Vocabulary(["the", "bridge", "is", "safe", "water", "?"], max_size=10)
    dims = ModelConfig(emb_dim=4, hidden_dim=3, fact_dim=5)
    model = AnswerModel(vocab, 2, dims, np.random.default_rng(5))
    example = encode_example("the bridge ?", "the bridge is safe water",
                             "bridge is", vocab, EncodeLimits(passage=10, answer=5))
    facts = [Fact(("bridge",), 0, ("safe",), 0),
             Fact(("water",), 1, ("bridge", "is"), 1)]
    return model, example, facts


def test_acceptance_1_gradient_suite():
    started = time.time()
    worst_primitive = 0.0
    for kind in sorted(ad.PRIMITIVES):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(3):
            f, wrt = _primitive_case(kind, rng)
            rep = ad.gradient_check(f, wrt, eps=1e-5, rel_tol=1e-3)
            assert not rep.flagged, (kind, rep)
            worst_primitive = max(worst_primitive, rep.max_rel_error)

    model, example, facts = tiny_toy()
    n_params = model.parameter_count()
    assert n_params <= 2000, n_params

    def full_objective():
        loss, _ = elbo_loss(model, example, facts, tau=0.7,
                            rng=np.random.default_rng(123), mode="gumbel")
        return loss

    rep = ad.gradient_check(full_objective, list(model.parameters.values()),
                            eps=1e-5, rel_tol=1e-3)
    elapsed = time.time() - started
    assert not rep.flagged, rep
    assert elapsed < 120.0, elapsed
    report(1, f"primitives worst rel err {worst_primitive:.2e}, full objective "
              f"({n_params} params) worst {rep.max_rel_error:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Sampling law: hard indices over 100k draws match the categorical within
#    total variation 0.01 for 10 random simplexes, chi-square p > 0.001.
# ---------------------------------------------------------------------------

def test_acceptance_2_sampling_law():
    started = time.time()
    rng = np.random.default_rng(2024)
    draws = 100_000
    worst_tv, worst_p = 0.0, 1.0
    for trial in range(10):
        k = int(rng.integers(2, 7))
        probs = rng.dirichlet(np.full(k, 3.0))
        while probs.min() < 0.02:  # keep expected counts chi-square-valid
            probs = rng.dirichlet(np.full(k, 3.0))
        # the sampler training uses, one row broadcast against every draw's uniforms
        uniforms = np.random.default_rng(1000 + trial).random((draws, k))
        idx = gumbel_softmax_sample(ad.constant([probs]), 1.0, uniforms=uniforms).hard_index
        counts = np.bincount(idx, minlength=k)
        tv = 0.5 * np.abs(counts / draws - probs).sum()
        chi = scipy.stats.chisquare(counts, f_exp=probs * draws)
        assert tv < 0.01, (trial, tv)
        assert chi.pvalue > 0.001, (trial, chi.pvalue)
        worst_tv = max(worst_tv, tv)
        worst_p = min(worst_p, chi.pvalue)
    elapsed = time.time() - started
    assert elapsed < 60.0, elapsed
    report(2, f"10 simplexes x {draws} draws, worst TV {worst_tv:.4f}, "
              f"worst chi-square p {worst_p:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Scoring oracle: extraction equals brute-force rule application on 1k
#    random instances with KBs up to 10k facts.
# ---------------------------------------------------------------------------

def naive_occurs(needle, hay):
    needle, hay = list(needle), list(hay)
    return len(needle) > 0 and any(hay[i:i + len(needle)] == needle
                                   for i in range(len(hay)))


def brute_force(kb, q, p, n_facts):
    out = []
    for fact in kb.facts:
        sq = naive_occurs(fact.subject, q)
        sp = naive_occurs(fact.subject, p)
        op = naive_occurs(fact.object, p)
        score = (4 if sq and op else 0) + (2 if sp and op else 0) + (1 if sq or sp else 0)
        if score > 0:
            out.append(ScoredFact(fact.fact_id, score))
    out.sort(key=lambda sf: (-sf.score, sf.fact_id))
    return out[:n_facts]


def random_kb(rng, n_facts, pool):
    kb = KnowledgeBase()
    for _ in range(n_facts):
        kb.add(tuple(rng.choice(pool, size=rng.integers(1, 4))), "R",
               tuple(rng.choice(pool, size=rng.integers(1, 4))))
    return kb


def test_acceptance_3_scoring_oracle():
    started = time.time()
    rng = np.random.default_rng(3)
    pool = np.array(["red", "bridge", "water", "cross", "cat", "dog", "sun",
                     "star", "x", "y", "z", "q"])
    sizes = [int(s) for s in rng.choice([20, 100, 500, 2000, 10_000], size=1000,
                                        p=[0.35, 0.3, 0.2, 0.13, 0.02])]
    assert max(sizes) == 10_000  # the cap case is exercised
    for i, size in enumerate(sizes):
        kb = random_kb(rng, size, pool)
        q = [str(t) for t in rng.choice(pool, size=rng.integers(1, 8))]
        p = [str(t) for t in rng.choice(pool, size=rng.integers(1, 12))]
        n_facts = int(rng.integers(1, 20))
        assert extract_related_facts(kb, q, p, n_facts) == brute_force(kb, q, p, n_facts), i
    elapsed = time.time() - started
    report(3, f"1000 instances (KB sizes 20..10000) match exactly, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Jensen check: exact marginal >= exact bound on a 3-timestep toy for 100
#    random parameter draws, strict when the selector is non-degenerate.
# ---------------------------------------------------------------------------

def test_acceptance_4_jensen():
    vocab = Vocabulary(["the", "bridge", "is", "safe", "water", "?"], max_size=10)
    dims = ModelConfig(emb_dim=4, hidden_dim=3, fact_dim=5)
    example = encode_example("the bridge ?", "the bridge is safe water",
                             "bridge is", vocab, EncodeLimits(passage=10, answer=5))
    assert len(example.answer_ids) == 3  # three decoding timesteps
    facts = [Fact(("bridge",), 0, ("safe",), 0), Fact(("water",), 1, ("is",), 1)]
    strict = 0
    min_gap = float("inf")
    for seed in range(100):
        model = AnswerModel(vocab, 2, dims, np.random.default_rng(10_000 + seed))
        _, exact = elbo_loss(model, example, facts, 1.0,
                             np.random.default_rng(0), mode="exact")
        _, marginal = elbo_loss(model, example, facts, 1.0,
                                np.random.default_rng(0), mode="marginal")
        gap = marginal.objective - exact.objective
        assert gap >= -1e-12, (seed, gap)
        if all(p.max() < 0.999 for p in exact.step_source_probs):
            assert gap > 0.0, (seed, gap)
            strict += 1
            min_gap = min(min_gap, gap)
    assert strict > 90  # random draws are essentially never degenerate
    report(4, f"100 draws, bound never exceeds marginal; strict in {strict} "
              f"(min gap {min_gap:.3e})")


# ---------------------------------------------------------------------------
# 5. Overfit: copy-q and copy-p reach >= 95% token accuracy within 2k steps
#    at the desk profile, in under 15 minutes.
# ---------------------------------------------------------------------------

def load_synth_items(task, size, seed, cfg, tmp_path):
    data_path, kb_path = synth_generate(task, size, seed, tmp_path / task)
    records = load_jsonl_dataset(data_path)
    corpus = [tokenize(r.question) + tokenize(r.passage) for r in records]
    vocab = build_vocab(corpus, cfg.data.vocab_size)
    kb = ingest_triples(kb_path)
    return records, vocab, kb, encode_dataset(records, vocab, cfg, kb)


def token_accuracy(model, records, items, kb, n_eval):
    matched = total = 0
    for rec, item in zip(records[:n_eval], items[:n_eval]):
        result = generate(rec.question, rec.passage, model, kb=kb, beam_size=1, max_len=30)
        produced = [t for t in result.tokens if t != "<eos>"]
        gold = item.example.answer_tokens
        total += len(gold)
        matched += sum(1 for i, g in enumerate(gold)
                       if i < len(produced) and produced[i] == g)
    return matched / max(1, total)


def train_until(model, items, cfg, records, kb, threshold, max_steps,
                eval_every=100, n_eval=40):
    """`train` for at most max_steps, measuring generation accuracy every
    eval_every steps; stops once the threshold is reached."""
    accuracy = 0.0

    def evaluate(metrics):
        nonlocal accuracy
        if (metrics.step + 1) % eval_every:
            return False
        accuracy = token_accuracy(model, records, items, kb, n_eval)
        return accuracy >= threshold

    history = train(model, items, replace(cfg, max_steps=max_steps), on_step=evaluate)
    return len(history), accuracy


@pytest.mark.parametrize("task", ["copy-q", "copy-p"])
def test_acceptance_5_copy_overfit(task, tmp_path):
    started = time.time()
    cfg = RunConfig.desk()
    records, vocab, kb, items = load_synth_items(task, 200, 42, cfg, tmp_path)
    model = AnswerModel(vocab, max(1, len(kb.relation_names)), cfg.model,
                        np.random.default_rng(0))
    steps, accuracy = train_until(model, items, cfg.training, records, kb,
                                  threshold=0.95, max_steps=2000)
    elapsed = time.time() - started
    assert accuracy >= 0.95, (task, steps, accuracy)
    assert steps <= 2000
    assert elapsed < 900.0, elapsed
    report(5, f"{task}: {accuracy:.1%} token accuracy after {steps} steps, "
              f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Knowledge ablation: the full model produces the KB-only target token in
#    >= 90% of answers; with the knowledge source disabled it never can.
# ---------------------------------------------------------------------------

def nonce_production(model, records, targets, kb, n_eval, knowledge):
    hits = 0
    for rec, target in list(zip(records, targets))[:n_eval]:
        result = generate(rec.question, rec.passage, model,
                          kb=kb if knowledge else None, beam_size=1, max_len=30,
                          knowledge_enabled=knowledge)
        hits += int(target in result.tokens)
    return hits / n_eval


def test_acceptance_6_knowledge_ablation(tmp_path):
    started = time.time()
    cfg = RunConfig.desk()
    records, vocab, kb, items = load_synth_items("kb-lookup", 200, 42, cfg, tmp_path)
    targets = [it.example.answer_tokens[0] for it in items]  # the injected token
    # construction guarantee: out-of-vocabulary and absent from all text
    for rec, item, target in zip(records, items, targets):
        assert target not in vocab.id_by_token
        assert target not in item.example.question_tokens
        assert target not in item.example.passage_tokens

    full = AnswerModel(vocab, len(kb.relation_names), cfg.model,
                       np.random.default_rng(0))
    steps, _ = train_until(full, items, cfg.training, records, kb,
                           threshold=0.95, max_steps=2000)
    full_rate = nonce_production(full, records, targets, kb, 50, knowledge=True)
    assert full_rate >= 0.90, (steps, full_rate)

    ablated = AnswerModel(vocab, len(kb.relation_names), cfg.model,
                          np.random.default_rng(0))
    stripped = [TrainItem(it.example, []) for it in items]
    train(ablated, stripped, replace(cfg.training, max_steps=300))
    ablated_rate = nonce_production(ablated, records, targets, kb, 50, knowledge=False)
    elapsed = time.time() - started
    assert ablated_rate == 0.0, ablated_rate
    report(6, f"full model {full_rate:.0%} target production ({steps} steps); "
              f"knowledge-disabled {ablated_rate:.0%}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. Metric validation: the hand-computed examples, exactly (1e-6).
# ---------------------------------------------------------------------------

def test_acceptance_7_metric_validation():
    assert rouge_l(["the", "cat"], ["the", "cat"]) == pytest.approx(1.0, abs=1e-6)
    assert rouge_l(["dog"], ["cat"]) == pytest.approx(0.0, abs=1e-6)
    # LCS=2, R=2/3, P=1, beta^2=1.44 -> ((1+1.44)*(2/3)*1)/((2/3)+1.44)
    assert rouge_l(["the", "cat"], ["the", "cat", "sat"]) == pytest.approx(
        (2.44 * (2 / 3)) / ((2 / 3) + 1.44), abs=1e-6)
    assert bleu_1([["the", "cat"]], [["the", "cat"]]) == pytest.approx(1.0, abs=1e-6)
    assert bleu_1([["the", "the"]], [["the", "cat"]]) == pytest.approx(0.5, abs=1e-6)
    assert bleu_1([[]], [["the"]]) == pytest.approx(0.0, abs=1e-6)
    report(7, "rouge and unigram-precision hand examples reproduced to 1e-6")


# ---------------------------------------------------------------------------
# 8. Determinism: same seed -> bit-identical checkpoints and metric logs;
#    generation from a checkpoint is bit-identical.
# ---------------------------------------------------------------------------

def test_acceptance_8_determinism(tmp_path):
    runner = CliRunner()
    out = tmp_path / "synth"
    assert runner.invoke(cli_main, ["synth", "--task", "copy-q", "--size", "6",
                                    "--seed", "2", "--out", str(out)]).exit_code == 0
    data = out / "copy-q.jsonl"
    vocab_path = tmp_path / "vocab.json"
    assert runner.invoke(cli_main, ["prepare", "--data", str(data), "--out",
                                    str(vocab_path), "--profile", "desk"]).exit_code == 0
    small = ["--set", "model.emb_dim=8", "--set", "model.hidden_dim=8",
             "--set", "model.fact_dim=8", "--set", "training.max_steps=25",
             "--set", "training.batch_size=3"]
    blobs, logs = [], []
    for name in ("a", "b"):
        ckpt = tmp_path / f"{name}.ckpt"
        metrics = tmp_path / f"{name}.metrics.jsonl"
        result = runner.invoke(cli_main, [
            "train", "--data", str(data), "--vocab", str(vocab_path),
            "--kb", str(out / "kb.tsv"), "--out", str(ckpt),
            "--metrics", str(metrics), "--profile", "desk", "--seed", "7", *small])
        assert result.exit_code == 0, result.output
        blobs.append(ckpt.read_bytes())
        logs.append(metrics.read_bytes())
    assert blobs[0] == blobs[1]
    assert logs[0] == logs[1]

    preds = []
    for name in ("p1", "p2"):
        pred = tmp_path / f"{name}.jsonl"
        result = runner.invoke(cli_main, [
            "generate", "--checkpoint", str(tmp_path / "a.ckpt"),
            "--vocab", str(vocab_path), "--data", str(data),
            "--kb", str(out / "kb.tsv"), "--out", str(pred)])
        assert result.exit_code == 0, result.output
        preds.append(pred.read_bytes())
    assert preds[0] == preds[1]
    report(8, "checkpoints, metric logs and predictions are bit-identical")


# ---------------------------------------------------------------------------
# 9. Trace fidelity: the per-token log factors recorded in the trace recompose
#    the beam's stored score to 1e-9.
# ---------------------------------------------------------------------------

def test_acceptance_9_trace_fidelity():
    vocab = Vocabulary(["the", "bridge", "is", "safe", "water", "old", "?"],
                       max_size=12)
    dims = ModelConfig(emb_dim=4, hidden_dim=3, fact_dim=5)
    kb = KnowledgeBase()
    kb.add(("bridge",), "IsA", ("safe", "water"))

    worst = 0.0
    checked = 0
    for seed in range(12):
        model = AnswerModel(vocab, 1, dims, np.random.default_rng(seed))
        if seed % 3 == 0:  # push some decodes through the knowledge source
            model.selector.b_source.data[:] = [0.0, 0.0, 0.0, 4.0]
        for beam in (1, 4):
            result = generate("is the bridge safe ?", "the old bridge is safe .",
                              model, kb=kb, beam_size=beam, max_len=8)
            err = abs(trace_score(result.trace) - result.score)
            worst = max(worst, err)
            checked += 1
            assert err <= 1e-9, (seed, beam, err)
    report(9, f"{checked} decodes recomposed exactly (worst |err| {worst:.1e})")
