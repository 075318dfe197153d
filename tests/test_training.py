import hashlib
import itertools
import json
import struct
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from answergen import autodiff as ad
from answergen import training
from answergen.cli import main as cli_main
from answergen.config import RunConfig, TrainingConfig
from answergen.errors import (
    CorruptFileError,
    NonFiniteGradientError,
    NonFiniteValueError,
    NumericError,
    VersionMismatchError,
)
from answergen.knowledge import Fact
from answergen.model import AnswerModel
from answergen.selectors import PROB_FLOOR
from answergen.text import PAD, EncodeLimits, Vocabulary, encode_example
from answergen.training import (
    ADAM_BLOCK,
    Adam,
    TrainItem,
    clip_global_norm,
    elbo_loss,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    teacher_inputs,
    train,
)

from conftest import (
    BASE_TOKENS,
    force_cpus,
    make_model,
    make_vocab,
    toy_example,
    toy_facts,
    zero_model,
)


def test_teacher_inputs_shift_right(vocab):
    ex = toy_example(vocab)
    inputs, targets = teacher_inputs(ex)
    assert inputs[0] == 2  # BOS
    assert inputs[1:] == ex.answer_ids[:-1]
    assert [t for t, _ in targets] == ex.answer_ids
    assert targets[-1][1] == "<eos>"


def test_elbo_zero_params_matches_hand_expansion(vocab):
    """At zero parameters every distribution is uniform, so the bound can be
    expanded by hand: each step contributes 0.25 * sum_y log(l_y + eps) and
    coverage adds exactly 2 per step after the first."""
    model = zero_model(make_model(vocab))
    ex = toy_example(vocab, answer="bridge .")
    facts = toy_facts()
    loss, diag = elbo_loss(model, ex, facts, tau=1.0,
                           rng=np.random.default_rng(0), mode="exact")

    n_q, n_p, v = len(ex.question_tokens), len(ex.passage_tokens), len(vocab)
    _, targets = teacher_inputs(ex)
    expected_obj = 0.0
    for target_id, raw in targets:
        l_q = ex.question_tokens.count(raw) / n_q
        l_p = ex.passage_tokens.count(raw) / n_p
        l_v = 1.0 / v if target_id != 1 else 0.0
        l_k = sum(1.0 for f in facts if f.object[0] == raw) / len(facts)
        expected_obj += 0.25 * sum(np.log(l + PROB_FLOOR) for l in (l_q, l_p, l_v, l_k))
    t_steps = len(targets)
    expected_cov = 2.0 * (t_steps - 1)  # uniform attention repeats everywhere
    assert diag.objective == pytest.approx(expected_obj, abs=1e-9)
    assert diag.coverage == pytest.approx(expected_cov, abs=1e-9)
    assert float(loss.data) == pytest.approx(-expected_obj + expected_cov, abs=1e-9)
    np.testing.assert_allclose(diag.step_source_probs[0], [0.25] * 4, atol=1e-12)


def test_exact_enumeration_equals_expectation_form(vocab):
    """The 4-way enumeration and the dot-product expectation are the same
    number; recompute the latter from the recorded per-step quantities."""
    model = make_model(vocab, seed=3)
    ex = toy_example(vocab)
    _, diag = elbo_loss(model, ex, toy_facts(), tau=1.0,
                        rng=np.random.default_rng(0), mode="exact")
    recomputed = sum(float(np.dot(p, logs)) for p, logs
                     in zip(diag.step_source_probs, diag.step_log_likelihoods))
    assert diag.objective == pytest.approx(recomputed, abs=1e-12)


def test_jensen_gap_marginal_dominates_bound(vocab):
    """log-marginal >= bound for random parameter draws, strictly when the
    source distribution is non-degenerate."""
    ex = toy_example(vocab)
    facts = toy_facts()
    for seed in range(20):
        model = make_model(vocab, seed=seed)
        _, exact = elbo_loss(model, ex, facts, tau=1.0,
                             rng=np.random.default_rng(0), mode="exact")
        _, marginal = elbo_loss(model, ex, facts, tau=1.0,
                                rng=np.random.default_rng(0), mode="marginal")
        assert marginal.objective >= exact.objective - 1e-12
        if all(p.max() < 0.999 for p in exact.step_source_probs):
            assert marginal.objective > exact.objective


def two_token_example(vocab):
    """2-step toy whose targets are feasible in every live source, keeping
    the per-sample spread of the log terms small."""
    from answergen.text import Example
    q = ["the", "bridge", "is", "safe", "?"]
    p = ["the", "bridge", "is", "safe", "."]
    a = ["bridge", "is"]
    enc = vocab.encode
    return Example(question_ids=[enc(t) for t in q], passage_ids=[enc(t) for t in p],
                   answer_ids=[enc(t) for t in a], question_tokens=q,
                   passage_tokens=p, answer_tokens=a)


def test_mc_estimate_converges_to_exact_expectation(vocab):
    """At low temperature the relaxed samples are effectively one-hot draws
    from P(y), so the mc average converges to the enumerated expectation."""
    model = make_model(vocab, seed=5)
    ex = two_token_example(vocab)
    _, exact = elbo_loss(model, ex, [], tau=1.0,
                         rng=np.random.default_rng(0), mode="exact")
    _, sampled = elbo_loss(model, ex, [], tau=0.02,
                           rng=np.random.default_rng(11), mode="gumbel",
                           mc_samples=30000)
    assert sampled.objective == pytest.approx(exact.objective, abs=1e-2)


def test_elbo_gradients_match_finite_differences(vocab):
    """Fixed Gumbel noise makes the sampled objective deterministic, so its
    tape gradient must match central differences on a parameter subset."""
    model = make_model(vocab, seed=7)
    ex = toy_example(vocab, answer="bridge .")
    facts = toy_facts()

    def f():
        loss, _ = elbo_loss(model, ex, facts, tau=0.7,
                            rng=np.random.default_rng(99), mode="gumbel")
        return loss

    wrt = [model.selector.b_source, model.selector.gate_fact,
           model.attn_q.gate, model.decoder.b, model.b_init_h]
    report = ad.gradient_check(f, wrt, eps=1e-5, rel_tol=1e-3)
    assert not report.flagged, report


def test_knowledge_disabled_masks_source(vocab):
    model = make_model(vocab, seed=1)
    ex = toy_example(vocab)
    _, diag = elbo_loss(model, ex, toy_facts(), tau=1.0,
                        rng=np.random.default_rng(0), mode="exact",
                        knowledge_enabled=False)
    for probs in diag.step_source_probs:
        assert probs[3] == 0.0
        assert abs(probs.sum() - 1.0) < 1e-9


def test_negative_bound_per_token_nonnegative(vocab):
    model = make_model(vocab, seed=2)
    ex = toy_example(vocab)
    loss, diag = elbo_loss(model, ex, toy_facts(), tau=0.8,
                           rng=np.random.default_rng(3))
    assert float(loss.data) >= 0.0
    assert float(loss.data) / diag.n_tokens >= 0.0


# --- optimization ---

def test_adam_zero_lr_keeps_parameters(vocab):
    model = make_model(vocab, seed=0)
    before = {k: v.data.copy() for k, v in model.parameters.items()}
    opt = Adam(model.parameters, lr=0.0)
    grads = {k: np.ones_like(v.data) for k, v in model.parameters.items()}
    opt.step(grads)
    for k, v in model.parameters.items():
        np.testing.assert_array_equal(v.data, before[k])


def reference_adam_step(params, m, v, grads, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as written before the blocked in-place update, kept as the
    reference it must equal bit for bit."""
    for name, p in params.items():
        g = grads[name]
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1 ** t)
        v_hat = v[name] / (1 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def record_updates(monkeypatch):
    """Wrap Adam._update to record, per call, the thread and its job count."""
    calls = []
    update = Adam._update

    def recording(self, jobs, *args):
        calls.append((threading.get_ident(), len(jobs)))
        return update(self, jobs, *args)

    monkeypatch.setattr(Adam, "_update", recording)
    return calls


def test_adam_equals_the_unblocked_formula(monkeypatch):
    """Unscaled, and with a clip scale applied as the in-place ``g *= scale``
    over the whole gradient that it replaces, on one, two and three CPUs.
    The shapes hold 7 whole blocks (one parameter of exactly one block),
    partial blocks and parameters smaller than a block. One CPU runs every
    block on the calling thread; with two, the share boundary falls inside
    "matrix"; with three, the shares are 2, 2 and 3 blocks."""
    shapes = {"one": (1,), "below": (ADAM_BLOCK - 1,), "block": (ADAM_BLOCK,),
              "above": (ADAM_BLOCK + 1,), "matrix": (5, ADAM_BLOCK // 2),
              "long": (3 * ADAM_BLOCK + 7,)}
    calls = record_updates(monkeypatch)
    for cpus, scale in itertools.product((1, 2, 3), (None, 0.37)):
        force_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(0)
        start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = {name: ad.Tensor(arr.copy()) for name, arr in start.items()}
        expected = {name: arr.copy() for name, arr in start.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        opt = Adam(params, lr=1e-2)
        for t in range(1, 6):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            before = {name: g.copy() for name, g in grads.items()}
            calls.clear()
            opt.step(grads, scale)
            if cpus == 1:
                assert calls == [(threading.get_ident(), 12)]
            else:  # the shares, then the 5 partial blocks on the calling thread
                shares = [7 * (i + 1) // cpus - 7 * i // cpus for i in range(cpus)]
                assert sorted(n for _, n in calls) == sorted(shares + [5])
                assert any(ident != threading.get_ident() for ident, _ in calls)
                assert calls[-1] == (threading.get_ident(), 5)
            for name, g in grads.items():
                np.testing.assert_array_equal(g, before[name])  # read, never written
                if scale is not None:
                    g *= scale
            reference_adam_step(expected, m, v, grads, t, lr=1e-2)
        for name in shapes:
            assert not np.array_equal(params[name].data, start[name])
            np.testing.assert_array_equal(params[name].data, expected[name])


def test_adam_shares_blocks_only_when_each_thread_gets_two(monkeypatch):
    """Fewer than two whole blocks per CPU keep every block on the calling
    thread."""
    force_cpus(monkeypatch, 2)
    calls = record_updates(monkeypatch)
    rng = np.random.default_rng(5)
    for n_blocks, n_calls in ((3, 1), (4, 3)):
        params = {"w": ad.Tensor(rng.normal(size=n_blocks * ADAM_BLOCK + 1))}
        calls.clear()
        Adam(params).step({"w": rng.normal(size=n_blocks * ADAM_BLOCK + 1)})
        assert len(calls) == n_calls


# 22 whole blocks, a partial block and a parameter smaller than one block.
STRESS_SHAPES = {"big": (19 * ADAM_BLOCK + 5,), "matrix": (3, ADAM_BLOCK), "small": (7,)}


def test_adam_threads_under_frequent_switching_equal_the_serial_update(monkeypatch):
    """Eight threads, more than a small machine has cores, with the
    interpreter switching threads every microsecond, for at most about a
    second of steps: every step's parameters and moments equal the
    one-thread update bit for bit."""
    rng = np.random.default_rng(6)
    start = {name: rng.normal(size=shape) for name, shape in STRESS_SHAPES.items()}
    force_cpus(monkeypatch, 1)
    serial_params = {name: ad.Tensor(arr.copy()) for name, arr in start.items()}
    serial = Adam(serial_params, lr=1e-2)
    force_cpus(monkeypatch, 8)
    calls = record_updates(monkeypatch)
    threaded_params = {name: ad.Tensor(arr.copy()) for name, arr in start.items()}
    threaded = Adam(threaded_params, lr=1e-2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 1.0
        steps = 0
        while steps < 3 or (steps < 40 and time.monotonic() < deadline):
            grads = {name: rng.normal(size=shape) for name, shape in STRESS_SHAPES.items()}
            scale = None if steps % 2 else 0.5
            calls.clear()
            threaded.step(grads, scale)
            assert len(calls) == 9
            serial.step(grads, scale)
            for name in STRESS_SHAPES:
                np.testing.assert_array_equal(threaded_params[name].data,
                                              serial_params[name].data, err_msg=name)
                np.testing.assert_array_equal(threaded.m[name], serial.m[name], err_msg=name)
                np.testing.assert_array_equal(threaded.v[name], serial.v[name], err_msg=name)
            steps += 1
    finally:
        sys.setswitchinterval(interval)


def test_adam_step_leaves_no_thread_running(monkeypatch):
    force_cpus(monkeypatch, 2)
    calls = record_updates(monkeypatch)
    params = {name: ad.Tensor(np.ones(shape)) for name, shape in STRESS_SHAPES.items()}
    before = threading.active_count()
    Adam(params).step({name: np.ones(p.data.shape) for name, p in params.items()})
    assert threading.active_count() == before
    assert any(ident != threading.get_ident() for ident, _ in calls)


def test_adam_worker_exception_reaches_the_caller(monkeypatch):
    force_cpus(monkeypatch, 2)
    update = Adam._update

    def failing_off_the_calling_thread(self, jobs, *args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        return update(self, jobs, *args)

    monkeypatch.setattr(Adam, "_update", failing_off_the_calling_thread)
    params = {name: ad.Tensor(np.ones(shape)) for name, shape in STRESS_SHAPES.items()}
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        Adam(params).step({name: np.ones(p.data.shape) for name, p in params.items()})
    assert threading.active_count() == before


def fortran_order(params, grads):
    params["b"].data = np.asfortranarray(params["b"].data)


def one_entry_gradient(params, grads):
    grads["b"] = np.ones(1)


def transposed_gradient(params, grads):
    grads["b"] = np.ones((6, 4))


def missing_gradient(params, grads):
    del grads["b"]


@pytest.mark.parametrize("spoil, error", [(fortran_order, ValueError),
                                          (one_entry_gradient, ValueError),
                                          (transposed_gradient, ValueError),
                                          (missing_gradient, KeyError)])
def test_adam_refuses_a_bad_entry_before_writing_anything(spoil, error):
    """A bad entry in the middle of the dict leaves t, every parameter and
    both moments as they were."""
    rng = np.random.default_rng(4)
    shapes = {"a": (3,), "b": (4, 6), "c": (ADAM_BLOCK + 2,)}
    params = {name: ad.Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}
    opt = Adam(params, lr=1e-2)
    opt.step({name: rng.normal(size=shape) for name, shape in shapes.items()})
    grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    spoil(params, grads)
    saved = [{name: arr.copy() for name, arr in moments.items()} for moments in (opt.m, opt.v)]
    before = {name: p.data.copy() for name, p in params.items()}
    with pytest.raises(error):
        opt.step(grads)
    assert opt.t == 1
    for name in shapes:
        np.testing.assert_array_equal(params[name].data, before[name])
        np.testing.assert_array_equal(opt.m[name], saved[0][name])
        np.testing.assert_array_equal(opt.v[name], saved[1][name])


def test_adam_step_makes_no_full_size_temporary():
    n = 2_000_000
    rng = np.random.default_rng(1)
    params = {"w": ad.Tensor(rng.normal(size=n))}
    grads = {"w": rng.normal(size=n)}
    opt = Adam(params, lr=1e-3)
    for scale in (None, 0.5):
        tracemalloc.start()
        try:
            opt.step(grads, scale)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, scale


def test_clip_global_norm_over_many_tensors():
    """The norm sums the squares in the order given, one add at a time, and
    clipping writes no gradient: it returns the factor Adam applies."""
    rng = np.random.default_rng(2)
    grads = {"a": rng.normal(size=7), "b": rng.normal(size=(3, 5)),
             "c": rng.normal(size=1), "d": rng.normal(size=(40, 2))}
    squares = [float(g.reshape(-1) @ g.reshape(-1)) for g in grads.values()]
    total = 0.0
    for sq in squares:
        total += sq
    norm, scale = clip_global_norm(squares, max_norm=0.5)
    assert norm == np.sqrt(total)
    assert norm == pytest.approx(np.sqrt(sum(np.sum(g ** 2) for g in grads.values())), rel=1e-12)
    assert scale == 0.5 / norm


def test_clip_global_norm():
    assert clip_global_norm([9.0, 16.0], max_norm=1.0) == (5.0, 0.2)
    assert clip_global_norm([0.09], max_norm=1.0) == (0.3, None)
    assert clip_global_norm([0.0, 0.0], max_norm=0.0) == (0.0, None)
    assert clip_global_norm([1e308, 1e308], max_norm=1.0) == (float("inf"), 0.0)


@pytest.mark.parametrize("vocab_size, helpers", [(512, 0), (2000, 1)])
def test_a_desk_train_step_starts_a_backward_helper_only_past_the_size_rule(
        monkeypatch, vocab_size, helpers):
    """With two CPUs, at desk dims and kb-dense's 512-word vocabulary every
    leaf is under ``HANDOFF_SIZE`` (sel.w_vocab has 82K entries), so
    backward starts no thread; at the desk profile's full 2,000 words,
    sel.w_vocab has 320K and backward starts one."""
    force_cpus(monkeypatch, 2)
    made = []
    executor = ad.ThreadPoolExecutor
    monkeypatch.setattr(ad, "ThreadPoolExecutor",
                        lambda *args: made.append(args) or executor(*args))
    cfg = RunConfig.desk()
    filler = {f"w{i}" for i in range(vocab_size - 4 - len(BASE_TOKENS))}  # 4 special tokens
    vocab = Vocabulary(sorted(set(BASE_TOKENS) | filler), max_size=vocab_size)
    assert len(vocab) == vocab_size
    model = AnswerModel(vocab, 2, cfg.model, np.random.default_rng(0))
    batch = [TrainItem(toy_example(vocab), toy_facts()),
             TrainItem(toy_example(vocab, answer="water ."), toy_facts()[:1])]
    metrics = training.train_step(model, batch, Adam(model.parameters, lr=cfg.training.lr),
                                  0.7, np.random.default_rng(1), cfg.training, 0)
    assert not metrics.skipped
    assert len(made) == helpers


@pytest.mark.parametrize("clip_norm", [1e-3, 1e9])
def test_train_step_equals_the_clip_then_adam_sequence(vocab, clip_norm):
    """train_step's norm and parameters equal, bit for bit, the sequence it
    replaces: a dot product per gradient for the norm, the gradients scaled
    in place, then the textbook Adam update."""
    batch = [TrainItem(toy_example(vocab), toy_facts()),
             TrainItem(toy_example(vocab, answer="water ."), toy_facts()[:1])]
    cfg = TrainingConfig(mc_samples=1, clip_norm=clip_norm)
    model, twin = make_model(vocab, seed=3), make_model(vocab, seed=3)
    optimizer = Adam(model.parameters, lr=1e-2)
    rng, twin_rng = np.random.default_rng(6), np.random.default_rng(6)
    expected = {name: t.data for name, t in twin.parameters.items()}
    m = {name: np.zeros(p.shape) for name, p in expected.items()}
    v = {name: np.zeros(p.shape) for name, p in expected.items()}
    for step in range(3):
        metrics = training.train_step(model, batch, optimizer, 0.7, rng, cfg, step)
        with ad.Tape() as tape:
            total, _ = training.batch_elbo_loss(twin, batch, 0.7, twin_rng)
            mean = ad.mul(total, ad.constant(1.0 / len(batch)))
        gm = tape.backward(mean, params=twin.parameters.values())
        norm_sq = 0.0
        for t in twin.parameters.values():
            flat = gm[t].reshape(-1)
            norm_sq += float(flat @ flat)
        norm = float(np.sqrt(norm_sq))
        grads = {name: gm[t].copy() for name, t in twin.parameters.items()}
        if norm > clip_norm:
            for g in grads.values():
                g *= clip_norm / norm
        reference_adam_step(expected, m, v, grads, step + 1, lr=1e-2)
        assert not metrics.skipped
        assert metrics.grad_norm == norm
        assert (norm > clip_norm) == (clip_norm < 1)
    for name, tensor in model.parameters.items():
        np.testing.assert_array_equal(tensor.data, expected[name], err_msg=name)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_gradient_whose_squared_norm_overflows_updates_with_scale_zero(vocab, monkeypatch):
    """A finite gradient whose sum of squares overflows is not skipped: its
    norm is inf, and clipping scales it by max_norm / inf = 0, so Adam takes
    a step on a zero gradient."""
    batch = [TrainItem(toy_example(vocab), toy_facts())]
    cfg = TrainingConfig(mc_samples=1, clip_norm=2.0)
    model, twin = make_model(vocab, seed=4), make_model(vocab, seed=4)
    optimizer, twin_optimizer = Adam(model.parameters, lr=1e-2), Adam(twin.parameters, lr=1e-2)
    first = training.train_step(model, batch, optimizer, 0.7, np.random.default_rng(8), cfg, 0)
    training.train_step(twin, batch, twin_optimizer, 0.7, np.random.default_rng(8), cfg, 0)
    assert np.isfinite(first.grad_norm)

    elbo = training.batch_elbo_loss

    def inflated(*args, **kwargs):
        loss, diag = elbo(*args, **kwargs)
        return ad.mul(loss, ad.constant(1e200)), diag

    monkeypatch.setattr(training, "batch_elbo_loss", inflated)
    metrics = training.train_step(model, batch, optimizer, 0.7, np.random.default_rng(9), cfg, 1)
    assert not metrics.skipped and metrics.grad_norm == np.inf and np.isfinite(metrics.loss)
    twin_optimizer.step({name: np.zeros(t.shape) for name, t in twin.parameters.items()})
    for name, tensor in model.parameters.items():
        np.testing.assert_array_equal(tensor.data, twin.parameters[name].data, err_msg=name)


def overfit_cfg(seed, steps=120):
    return TrainingConfig(batch_size=1, lr=5e-3, max_steps=steps, lambda_cov=1.0,
                          tau0=1.0, tau_min=0.1, anneal_rate=2e-3, mc_samples=1,
                          seed=seed, clip_norm=2.0)


def test_loss_decreases_on_single_example(vocab):
    wins = 0
    for seed in (0, 1, 2):
        model = make_model(vocab, seed=seed)
        data = [TrainItem(toy_example(vocab), toy_facts())]
        history = train(model, data, overfit_cfg(seed))
        early = np.mean([m.loss for m in history[30:50]])
        late = np.mean([m.loss for m in history[-20:]])
        wins += int(late < early)
    assert wins >= 2


def test_training_is_deterministic(vocab, tmp_path):
    files = []
    for run in range(2):
        model = make_model(vocab, seed=3)
        data = [TrainItem(toy_example(vocab), toy_facts())]
        train(model, data, overfit_cfg(seed=9, steps=5))
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(model, step=5, config=RunConfig.desk(), path=path)
        files.append(path.read_bytes())
    assert files[0] == files[1]


# --- checkpointing ---

def test_checkpoint_roundtrip_identical_forward(vocab, tmp_path):
    model_a = make_model(vocab, seed=4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model_a, step=17, config=RunConfig.desk(), path=path)
    ckpt = load_checkpoint(path)
    assert ckpt.step == 17
    model_b = make_model(vocab, seed=99)  # different init, then restored
    restore_model(model_b, ckpt)
    ex = toy_example(vocab)
    _, diag_a = elbo_loss(model_a, ex, toy_facts(), 1.0,
                          np.random.default_rng(0), mode="exact")
    _, diag_b = elbo_loss(model_b, ex, toy_facts(), 1.0,
                          np.random.default_rng(0), mode="exact")
    assert diag_a.objective == diag_b.objective


def test_checkpoint_with_a_nan_weight_is_refused_on_restore(vocab, tmp_path):
    """restore_model is a finiteness boundary: it names the tensor and
    leaves the model as it was."""
    poisoned = make_model(vocab, seed=4)
    poisoned.parameters["dec.w_h"].data[0, 0] = np.nan
    path = tmp_path / "model.ckpt"
    save_checkpoint(poisoned, step=0, config=RunConfig.desk(), path=path)
    model = make_model(vocab, seed=5)
    before = {k: v.data.copy() for k, v in model.parameters.items()}
    with pytest.raises(NonFiniteValueError, match="dec.w_h"):
        restore_model(model, load_checkpoint(path))
    for k, v in model.parameters.items():
        np.testing.assert_array_equal(v.data, before[k])


def test_a_nan_weight_fails_train_step_and_updates_nothing(vocab):
    """No primitive checks its output, so the NaN reaches a log of the bound,
    which raises a NumericError (exit 4) before any update is made."""
    model = make_model(vocab, seed=2)
    model.parameters["dec.w_h"].data[0, 0] = np.nan
    before = {k: v.data.copy() for k, v in model.parameters.items()}
    with pytest.raises(NumericError):
        training.train_step(model, [TrainItem(toy_example(vocab), toy_facts())],
                            Adam(model.parameters, lr=0.1), 0.7, np.random.default_rng(0),
                            TrainingConfig(), step=0)
    for k, v in model.parameters.items():
        np.testing.assert_array_equal(v.data, before[k])


def test_checkpoint_truncated_is_corrupt(vocab, tmp_path):
    model = make_model(vocab)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, step=0, config=RunConfig.desk(), path=path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(CorruptFileError):
        load_checkpoint(path)


def test_checkpoint_vocab_mismatch(vocab, tmp_path):
    model = make_model(vocab)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, step=0, config=RunConfig.desk(), path=path)
    other = make_model(make_vocab(extra=["zebra"]))
    with pytest.raises(VersionMismatchError):
        restore_model(other, load_checkpoint(path))


def test_checkpoint_version_mismatch(vocab, tmp_path, monkeypatch):
    model = make_model(vocab)
    path = tmp_path / "model.ckpt"
    monkeypatch.setattr(training, "CHECKPOINT_VERSION", 2)
    save_checkpoint(model, step=0, config=RunConfig.desk(), path=path)
    monkeypatch.setattr(training, "CHECKPOINT_VERSION", 1)
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_version_one_checkpoint_rejected(vocab, tmp_path, monkeypatch):
    """Version 1 stored sel.u_fact as (A, H), and version 2 stored the LSTM
    and attention weights (out, in). Square weights (attn_dim == hidden_dim)
    pass the shape check in either layout, so the version must tell them apart."""
    model = make_model(vocab)
    path = tmp_path / "model.ckpt"
    for old_version in (1, 2):
        monkeypatch.setattr(training, "CHECKPOINT_VERSION", old_version)
        save_checkpoint(model, step=0, config=RunConfig.desk(), path=path)
        monkeypatch.undo()
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)


def test_version_three_checkpoint_rejected(vocab, tmp_path):
    """Version 3 closed the file with a blake2b digest. Magic and version are
    read first, so the old file is refused as a version mismatch (exit 3),
    not as a corrupt file."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model(vocab), step=0, config=RunConfig.desk(), path=path)
    body = bytearray(path.read_bytes()[:-8])
    struct.pack_into("<I", body, 4, 3)
    path.write_bytes(bytes(body) + hashlib.blake2b(body, digest_size=8).digest())
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_checkpoint_flipped_payload_byte_is_corrupt(vocab, tmp_path):
    model = make_model(vocab)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, step=0, config=RunConfig.desk(), path=path)
    blob = bytearray(path.read_bytes())
    payload = blob.find(model.embedding.data.tobytes())
    assert payload > 0
    blob[payload + model.embedding.data.nbytes // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFileError):
        load_checkpoint(path)


# --- the padded batch ---

def mixed_batch(vocab):
    """Examples of different question, passage and answer lengths, with
    0, 1, 3 and 5 related facts."""
    facts = [Fact(("bridge",), 0, ("safe",), 0), Fact(("water",), 1, ("strong", "water"), 1),
             Fact(("old", "bridge"), 1, ("cross",), 2), Fact(("you",), 0, ("helps",), 3),
             Fact(("safe",), 1, ("old",), 4)]
    rows = [("what is the bridge ?", "the old bridge is safe and helps you cross water .",
             "bridge is safe .", facts[:1]),
            ("what ?", "water .", "strong water", []),
            ("is the old bridge safe to cross ?", "you cross the bridge .",
             "the old bridge is safe and strong and helps you cross water .", facts[:3]),
            ("what helps you ?", "the old bridge helps you cross water and is safe .",
             "qwerty helps", facts)]
    return [TrainItem(encode_example(q, p, a, vocab, EncodeLimits(passage=50, answer=20)), fs)
            for q, p, a, fs in rows]


@pytest.mark.parametrize("mc_samples", [1, 2])
@pytest.mark.parametrize("knowledge", [True, False])
def test_batch_equals_the_mean_of_its_examples(vocab, mc_samples, knowledge):
    """One padded batch gives, to rounding, the mean of its examples' losses
    computed one at a time, the same gradients, the same source counts, and
    leaves the generator where the per-example calls leave it."""
    model = make_model(vocab, seed=11)
    batch = mixed_batch(vocab)
    params = list(model.parameters.values())
    rng_batch, rng_each = np.random.default_rng(4), np.random.default_rng(4)

    with ad.Tape() as tape:
        total, diag = training.batch_elbo_loss(model, batch, 0.7, rng_batch,
                                               mc_samples=mc_samples,
                                               knowledge_enabled=knowledge)
        mean = ad.mul(total, ad.constant(1.0 / len(batch)))
    batch_grads = tape.backward(mean, params=params)

    losses, counts = [], np.zeros(4)
    each_grads = [np.zeros_like(p.data) for p in params]
    for item in batch:
        with ad.Tape() as tape:
            loss, one = elbo_loss(model, item.example, item.facts, 0.7, rng_each,
                                  mc_samples=mc_samples, knowledge_enabled=knowledge)
        grads = tape.backward(loss, params=params)
        losses.append(float(loss.data))
        counts += one.source_counts
        for acc, p in zip(each_grads, params):
            acc += grads[p] / len(batch)

    assert float(mean.data) == pytest.approx(np.mean(losses), rel=1e-12, abs=0.0)
    np.testing.assert_array_equal(diag.source_counts, counts)
    assert diag.n_tokens == sum(len(item.example.answer_ids) for item in batch)
    assert rng_batch.bit_generator.state == rng_each.bit_generator.state
    for p, want in zip(params, each_grads):
        np.testing.assert_allclose(batch_grads[p], want, rtol=1e-10,
                                   atol=1e-10 * max(1e-300, np.abs(want).max()), err_msg=p.name)
    # padding reads the PAD row, and padded steps, positions and fact slots
    # send it exactly nothing
    assert not batch_grads[model.embedding][PAD].any()

    optimizer = Adam(model.parameters, lr=1e-3)
    metrics = training.train_step(model, batch, optimizer, 0.7, np.random.default_rng(4),
                                  TrainingConfig(mc_samples=mc_samples, clip_norm=1e9), step=0,
                                  knowledge_enabled=knowledge)
    assert metrics.loss == float(mean.data)
    assert metrics.source_freqs == (counts / counts.sum()).tolist()


@pytest.mark.parametrize("answer", ["safe", "the old bridge is safe and strong ."])
def test_the_coverage_penalty_is_two_minimum_nodes_per_batch(vocab, answer):
    """Whatever the answer lengths, one loss takes the penalty as one
    minimum per side over all (T, B) rows."""
    model = make_model(vocab, seed=2)
    batch = [TrainItem(toy_example(vocab, answer), toy_facts()), TrainItem(toy_example(vocab))]
    with ad.Tape() as tape:
        training.batch_elbo_loss(model, batch, 0.7, np.random.default_rng(0))
    assert [node.op_kind for node in tape.nodes].count("minimum") == 2


def test_metrics_log_carries_the_grad_norm(vocab, tmp_path, monkeypatch):
    """Each line of `train --metrics` holds the step's gradient norm before
    clipping, null on a step skipped for a non-finite gradient, and the
    running count of skipped steps."""
    backward = ad.Tape.backward

    def fail_second_step(tape, loss, params=None):
        fail_second_step.calls += 1
        if fail_second_step.calls == 2:
            raise NonFiniteGradientError("injected")
        return backward(tape, loss, params)

    fail_second_step.calls = 0
    monkeypatch.setattr(ad.Tape, "backward", fail_second_step)
    vocab.save(tmp_path / "vocab.json")
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?",
                                "passage": "the old bridge is safe and helps you cross water .",
                                "answer": "bridge is safe ."}) + "\n")
    path = tmp_path / "metrics.jsonl"
    result = CliRunner().invoke(cli_main, [
        "train", "--data", str(data), "--vocab", str(tmp_path / "vocab.json"),
        "--out", str(tmp_path / "m.ckpt"), "--metrics", str(path), "--profile", "desk",
        "--set", "model.emb_dim=4", "--set", "model.hidden_dim=3", "--set", "model.fact_dim=5",
        "--set", "training.max_steps=3"])
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["skipped"] for line in lines] == [0, 1, 1]
    assert lines[1]["grad_norm"] is None
    assert all(line["grad_norm"] > 0 for line in (lines[0], lines[2]))


def test_a_callback_that_returns_true_stops_the_run_after_that_step(vocab):
    """Stopping at step 2 gives 3 steps' metrics and the parameters of a
    3-step run, bit for bit: the callback moves neither the batch nor the
    noise stream."""
    data = [TrainItem(toy_example(vocab, answer), toy_facts())
            for answer in ("bridge is safe .", "safe", "water is old .")]
    cfg = replace(overfit_cfg(seed=5, steps=10), batch_size=2)
    stopped, full = make_model(vocab, seed=8), make_model(vocab, seed=8)
    seen = []
    history = train(stopped, data, cfg, on_step=lambda m: seen.append(m) or m.step == 2)
    train(full, data, replace(cfg, max_steps=3))
    assert len(history) == 3 and seen == history
    for name, tensor in stopped.parameters.items():
        np.testing.assert_array_equal(tensor.data, full.parameters[name].data, err_msg=name)


def test_a_skipped_step_reports_what_the_applied_step_reports(vocab, monkeypatch):
    """A step skipped for a non-finite gradient reports the loss, loss per
    token and source frequencies of the same step applied; only grad_norm
    (NaN) and the skipped flag differ, and no parameter moves."""
    batch = [TrainItem(toy_example(vocab, answer), toy_facts())
             for answer in ("bridge is safe .", "safe", "water is old .")]
    cfg = TrainingConfig(mc_samples=1)
    applied_model, skipped_model = make_model(vocab, seed=6), make_model(vocab, seed=6)
    applied = training.train_step(applied_model, batch, Adam(applied_model.parameters, lr=1e-2),
                                  0.7, np.random.default_rng(3), cfg, 0)

    def failing(tape, loss, params=None):
        raise NonFiniteGradientError("injected")

    monkeypatch.setattr(ad.Tape, "backward", failing)
    before = {name: t.data.copy() for name, t in skipped_model.parameters.items()}
    skipped = training.train_step(skipped_model, batch, Adam(skipped_model.parameters, lr=1e-2),
                                  0.7, np.random.default_rng(3), cfg, 0)
    assert skipped.skipped and not applied.skipped
    assert np.isnan(skipped.grad_norm) and np.isfinite(applied.grad_norm)
    assert replace(skipped, grad_norm=applied.grad_norm, skipped=False) == applied
    for name, tensor in skipped_model.parameters.items():
        np.testing.assert_array_equal(tensor.data, before[name], err_msg=name)


def rewrite_checkpoint(path, *, version=None, edit_header=None, encode_header=None):
    """Rewrite a saved checkpoint with another version field, an edited JSON
    header or header bytes of its own, and seal it with a matching checksum."""
    blob = path.read_bytes()[:-8]
    saved_version, header_len = struct.unpack_from("<II", blob, 4)
    header = json.loads(blob[12:12 + header_len])
    if edit_header is not None:
        edit_header(header)
    if encode_header is not None:
        encoded = encode_header(header)
    else:
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    body = (blob[:4] + struct.pack("<II", version or saved_version, len(encoded)) + encoded
            + blob[12 + header_len:])
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])


def test_version_four_checkpoint_rejected(vocab, tmp_path):
    """Version 4 had no relation names after the config; it is refused as a
    version mismatch (exit 3), not as a corrupt file."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model(vocab), step=0, config=RunConfig.desk(), path=path)
    rewrite_checkpoint(path, version=4)
    with pytest.raises(VersionMismatchError, match="version 4"):
        load_checkpoint(path)


def test_version_five_checkpoint_rejected(vocab, tmp_path):
    """Version 5 kept the step, vocabulary hash, config, relation names and
    tensor names and shapes in length-prefixed binary fields. A whole version
    5 file, here one without tensors, is refused as a version mismatch."""
    body = (b"AGCP" + struct.pack("<IQQ", 5, 0, vocab.content_hash())
            + struct.pack("<I", 2) + b"{}" + struct.pack("<I", 2) + b"[]"
            + struct.pack("<I", 0))
    path = tmp_path / "model.ckpt"
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    with pytest.raises(VersionMismatchError, match="version 5"):
        load_checkpoint(path)


def add_tensor(header):
    header["tensors"].append(["extra", [1]])


def drop_tensor(header):
    header["tensors"].pop()


@pytest.mark.parametrize("edit_header, message", [(add_tensor, "past the end"),
                                                  (drop_tensor, "trailing bytes")])
def test_checkpoint_tensor_list_that_misses_the_payload_is_corrupt(vocab, tmp_path,
                                                                   edit_header, message):
    """A header whose tensors run past the end of the file, or stop short of
    it, is refused even under a matching checksum."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model(vocab), step=0, config=RunConfig.desk(), path=path)
    rewrite_checkpoint(path)
    load_checkpoint(path)
    rewrite_checkpoint(path, edit_header=edit_header)
    with pytest.raises(CorruptFileError, match=message):
        load_checkpoint(path)


def header_as_list(header):
    return json.dumps(sorted(header.items())).encode("utf-8")


def header_without_tensors(header):
    del header["tensors"]
    return json.dumps(header).encode("utf-8")


def header_with_extra_key(header):
    return json.dumps({**header, "extra": 1}).encode("utf-8")


def header_not_utf8(header):
    header["relation_names"] = ["caf\u00e9"]
    return json.dumps(header, ensure_ascii=False).encode("latin-1")


def header_with_string_shape(header):
    header["tensors"][0][1] = "12"
    return json.dumps(header).encode("utf-8")


def header_with_negative_extents(header):
    """The same number of entries, so only the signs are wrong."""
    header["tensors"][0][1] = [-extent for extent in header["tensors"][0][1]]
    return json.dumps(header).encode("utf-8")


def header_with_list_config(header):
    header["config"] = []
    return json.dumps(header).encode("utf-8")


@pytest.mark.parametrize("encode_header", [header_as_list, header_without_tensors,
                                           header_with_extra_key, header_not_utf8,
                                           header_with_string_shape,
                                           header_with_negative_extents,
                                           header_with_list_config])
def test_checkpoint_malformed_header_is_corrupt(vocab, tmp_path, encode_header):
    """A header under a matching checksum that is not an object with exactly
    the checkpoint's fields, with [name, shape] tensor entries, is refused
    as a corrupt file (exit 3)."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model(vocab), step=0, config=RunConfig.desk(), path=path)
    rewrite_checkpoint(path, encode_header=encode_header)
    with pytest.raises(CorruptFileError):
        load_checkpoint(path)


def test_checkpoint_round_trips_bit_for_bit(vocab, tmp_path):
    """Every field and every tensor comes back as saved, and saving the
    restored model writes the same file."""
    model = make_model(vocab, seed=4)
    config = RunConfig.desk()
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, step=17, config=config, path=first, relation_names=["born in"])
    ckpt = load_checkpoint(first)
    assert (ckpt.step, ckpt.vocab_hash) == (17, vocab.content_hash())
    assert ckpt.config == config.to_dict() and ckpt.relation_names == ["born in"]
    assert list(ckpt.tensors) == list(model.parameters)
    for name, tensor in model.parameters.items():
        assert ckpt.tensors[name].tobytes() == tensor.data.tobytes(), name
    restored = make_model(vocab, seed=99)
    restore_model(restored, ckpt)
    save_checkpoint(restored, step=17, config=config, path=second, relation_names=["born in"])
    assert second.read_bytes() == first.read_bytes()


def test_checkpoint_keeps_relation_names(vocab, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model(vocab), step=0, config=RunConfig.desk(), path=path,
                    relation_names=["born in", "part of"])
    assert load_checkpoint(path).relation_names == ["born in", "part of"]
    save_checkpoint(make_model(vocab), step=0, config=RunConfig.desk(), path=path)
    assert load_checkpoint(path).relation_names == []
