import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from answergen import autodiff as ad
from answergen import training
from answergen.config import RunConfig, TrainingConfig
from answergen.errors import (
    CorruptFileError,
    NonFiniteGradientError,
    NonFiniteValueError,
    NumericError,
    VersionMismatchError,
)
from answergen.knowledge import Fact
from answergen.selectors import PROB_FLOOR
from answergen.text import PAD, EncodeLimits, encode_example
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

from conftest import make_model, make_vocab, toy_example, toy_facts, zero_model


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


def test_adam_equals_the_unblocked_formula():
    """Unscaled, and with a clip scale applied as the in-place ``g *= scale``
    over the whole gradient that it replaces."""
    shapes = {"one": (1,), "below": (ADAM_BLOCK - 1,), "block": (ADAM_BLOCK,),
              "above": (ADAM_BLOCK + 1,), "matrix": (5, ADAM_BLOCK // 2)}
    for scale in (None, 0.37):
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
            opt.step(grads, scale)
            for name, g in grads.items():
                np.testing.assert_array_equal(g, before[name])  # read, never written
                if scale is not None:
                    g *= scale
            reference_adam_step(expected, m, v, grads, t, lr=1e-2)
        for name in shapes:
            assert not np.array_equal(params[name].data, start[name])
            np.testing.assert_array_equal(params[name].data, expected[name])


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


def test_metrics_log_carries_the_grad_norm(vocab, tmp_path, monkeypatch):
    """Each metrics line holds the step's gradient norm before clipping, and
    null on a step skipped for a non-finite gradient."""
    model = make_model(vocab, seed=2)
    data = [TrainItem(toy_example(vocab), toy_facts())]
    backward = ad.Tape.backward

    def fail_second_step(tape, loss, params=None):
        fail_second_step.calls += 1
        if fail_second_step.calls == 2:
            raise NonFiniteGradientError("injected")
        return backward(tape, loss, params)

    fail_second_step.calls = 0
    monkeypatch.setattr(ad.Tape, "backward", fail_second_step)
    path = tmp_path / "metrics.jsonl"
    history = train(model, data, overfit_cfg(seed=1, steps=3), metrics_path=path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["grad_norm"] for line in lines] == \
        [history[0].grad_norm, None, history[2].grad_norm]
    assert history[1].skipped and lines[1]["skipped"] == 1
    assert all(line["grad_norm"] > 0 for line in (lines[0], lines[2]))


def test_version_four_checkpoint_rejected(vocab, tmp_path):
    """Version 4 had no relation names after the config; it is refused as a
    version mismatch (exit 3)."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model(vocab), step=0, config=RunConfig.desk(), path=path,
                    relation_names=["born in", "part of"])
    blob = path.read_bytes()[:-8]
    (config_len,) = struct.unpack_from("<I", blob, 24)
    names_at = 28 + config_len
    (names_len,) = struct.unpack_from("<I", blob, names_at)
    body = bytearray(blob[:names_at] + blob[names_at + 4 + names_len:])
    struct.pack_into("<I", body, 4, 4)
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest()[:8])
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_checkpoint_keeps_relation_names(vocab, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_model(vocab), step=0, config=RunConfig.desk(), path=path,
                    relation_names=["born in", "part of"])
    assert load_checkpoint(path).relation_names == ["born in", "part of"]
    save_checkpoint(make_model(vocab), step=0, config=RunConfig.desk(), path=path)
    assert load_checkpoint(path).relation_names == []
