import numpy as np
import pytest

from answergen import autodiff as ad
from answergen import selectors as sel
from answergen.errors import (
    DegenerateDistributionError,
    EmptyFactSetError,
    InvalidScheduleError,
)
from answergen.knowledge import Fact
from answergen.selectors import (
    TemperatureSchedule,
    anneal_temperature,
    embed_facts,
    fact_distribution,
    fact_logits,
    gumbel_hard_indices,
    gumbel_softmax_sample,
    source_distribution,
    vocab_distribution,
)
from answergen.text import PAD, Vocabulary


def np_softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


@pytest.fixture
def vocab():
    return Vocabulary(["obama", "born", "hawaii", "cross", "water", "personality",
                       "disorder", "bridge", "x"], max_size=20)


def make_params(rng, vocab, emb=4, hidden=3, fact_dim=5, n_relations=2):
    return sel.SelectorParams.init(rng, len(vocab), n_relations, emb, hidden,
                                   fact_dim, attn_dim=hidden)


def zero_params(params):
    for name in ("w_vocab", "b_vocab", "w_source", "b_source", "w_fact_embed",
                 "b_fact_embed", "w_fact", "u_fact", "b_fact", "gate_fact"):
        getattr(params, name).data[:] = 0.0
    params.relation_table.data[:] = 0.0
    return params


def random_inputs(rng, hidden=3, emb=4):
    return (ad.constant(rng.normal(size=2 * hidden)),
            ad.constant(rng.normal(size=2 * hidden)),
            ad.constant(rng.normal(size=hidden)),
            ad.constant(rng.normal(size=emb)))


def test_vocab_distribution_zero_params_uniform(vocab):
    rng = np.random.default_rng(0)
    params = zero_params(make_params(rng, vocab))
    c_q, c_p, s, _ = random_inputs(rng)
    dist = vocab_distribution(c_q, c_p, s, params)
    np.testing.assert_allclose(dist.data, np.full(len(vocab), 1 / len(vocab)), atol=1e-12)


def test_vocab_distribution_sums_to_one(vocab):
    rng = np.random.default_rng(1)
    params = make_params(rng, vocab)
    c_q, c_p, s, _ = random_inputs(rng)
    dist = vocab_distribution(c_q, c_p, s, params)
    assert abs(dist.data.sum() - 1.0) < 1e-9
    assert np.all(dist.data >= 0)


def test_vocab_distribution_matches_transcription(vocab):
    rng = np.random.default_rng(2)
    params = make_params(rng, vocab)
    c_q, c_p, s, _ = random_inputs(rng)
    feats = np.concatenate([c_q.data, c_p.data, s.data])
    want = np_softmax(feats @ params.w_vocab.data + params.b_vocab.data)
    got = vocab_distribution(c_q, c_p, s, params)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_source_distribution_zero_params_uniform(vocab):
    rng = np.random.default_rng(3)
    params = zero_params(make_params(rng, vocab))
    c_q, c_p, s, x = random_inputs(rng)
    dist = source_distribution(c_q, c_p, s, x, params)
    np.testing.assert_allclose(dist.data, [0.25] * 4, atol=1e-12)


def test_source_distribution_masks_knowledge(vocab):
    rng = np.random.default_rng(4)
    params = zero_params(make_params(rng, vocab))
    c_q, c_p, s, x = random_inputs(rng)
    dist = source_distribution(c_q, c_p, s, x, params, knowledge_available=False)
    np.testing.assert_allclose(dist.data, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)
    assert dist.data[3] == 0.0


def test_source_distribution_matches_transcription(vocab):
    rng = np.random.default_rng(5)
    params = make_params(rng, vocab)
    c_q, c_p, s, x = random_inputs(rng)
    feats = np.concatenate([c_q.data, c_p.data, s.data, x.data])
    want = np_softmax(feats @ params.w_source.data + params.b_source.data)
    got = source_distribution(c_q, c_p, s, x, params)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


# --- fact embedding ---

# 1- to 3-token segments, a token repeated within a segment and across facts,
# and an OOV subject token that hits the UNK row.
FACTS = [Fact(("bridge",), 0, ("cross", "water"), 0),
         Fact(("obama", "born", "obama"), 1, ("hawaii",), 1),
         Fact(("qwerty", "x"), 0, ("personality", "disorder", "x"), 2)]


def embed_reference(facts, table, vocab, params):
    """Per-fact numpy transcription: W [mean e_s, e_r, mean e_o] + b."""
    def pooled(tokens):
        return np.mean([table[vocab.encode(t)] for t in tokens], axis=0)
    feats = np.array([np.concatenate([pooled(f.subject), params.relation_table.data[f.relation],
                                      pooled(f.object)]) for f in facts])
    return feats @ params.w_fact_embed.data + params.b_fact_embed.data


def test_embed_fact_zero_params_zero_rep(vocab):
    rng = np.random.default_rng(7)
    params = zero_params(make_params(rng, vocab))
    emb = ad.constant(np.random.default_rng(0).normal(size=(len(vocab), 4)))
    rep = embed_facts(FACTS, emb, vocab, params)
    np.testing.assert_array_equal(rep.data, np.zeros((len(FACTS), 5)))


def test_embed_fact_identity_recovers_pooled_segments(vocab):
    """With W = identity and b = 0 each row is exactly
    [e_subject, e_relation, e_object], exposing the average pooling."""
    rng = np.random.default_rng(8)
    emb_dim = 4
    params = sel.SelectorParams.init(rng, len(vocab), 2, emb_dim, 3,
                                     fact_dim=3 * emb_dim, attn_dim=3)
    params.w_fact_embed.data[:] = np.eye(3 * emb_dim)
    params.b_fact_embed.data[:] = 0.0
    table = np.random.default_rng(1).normal(size=(len(vocab), emb_dim))
    rep = embed_facts(FACTS, ad.constant(table), vocab, params).data
    row = {t: table[vocab.encode(t)] for t in ("bridge", "cross", "water", "obama", "born",
                                              "x", "personality", "disorder")}
    unk = table[vocab.encode("qwerty")]
    np.testing.assert_allclose(rep[:, :emb_dim],
                               [row["bridge"], (2 * row["obama"] + row["born"]) / 3,
                                (unk + row["x"]) / 2], atol=1e-12)
    np.testing.assert_allclose(rep[:, emb_dim:2 * emb_dim],
                               params.relation_table.data[[0, 1, 0]], atol=1e-12)
    np.testing.assert_allclose(rep[:, 2 * emb_dim:],
                               [(row["cross"] + row["water"]) / 2, table[vocab.encode("hawaii")],
                                (row["personality"] + row["disorder"] + row["x"]) / 3],
                               atol=1e-12)


def test_embed_facts_matches_per_fact(vocab):
    """Values and gradients against a per-fact numpy reference; the PAD row
    that fills short segments gets an exactly zero gradient."""
    rng = np.random.default_rng(9)
    emb_dim = 4
    params = make_params(rng, vocab)
    table = np.random.default_rng(2).normal(size=(len(vocab), emb_dim))
    emb = ad.Tensor(table.copy(), requires_grad=True)
    upstream = rng.normal(size=(len(FACTS), 5))
    with ad.Tape() as tape:
        matrix = embed_facts(FACTS, emb, vocab, params)
        loss = ad.sum(ad.mul(matrix, ad.constant(upstream)))
    gm = tape.backward(loss, [emb, params.relation_table])
    np.testing.assert_allclose(matrix.data, embed_reference(FACTS, table, vocab, params),
                               atol=1e-12)

    g_feats = upstream @ params.w_fact_embed.data.T
    want_emb = np.zeros_like(table)
    want_rel = np.zeros_like(params.relation_table.data)
    for i, fact in enumerate(FACTS):
        want_rel[fact.relation] += g_feats[i, emb_dim:2 * emb_dim]
        for segment, g in ((fact.subject, g_feats[i, :emb_dim]),
                           (fact.object, g_feats[i, 2 * emb_dim:])):
            for token in segment:
                want_emb[vocab.encode(token)] += g / len(segment)
    np.testing.assert_allclose(gm[emb], want_emb, atol=1e-12)
    np.testing.assert_allclose(gm[params.relation_table], want_rel, atol=1e-12)
    assert np.all(gm[emb][PAD] == 0.0)


def test_embed_facts_tape_size_independent_of_fact_count(vocab):
    rng = np.random.default_rng(10)
    params = make_params(rng, vocab)
    emb = ad.Tensor(rng.normal(size=(len(vocab), 4)), requires_grad=True)
    words = vocab.token_by_id[4:]

    def nodes(n_facts):
        facts = [Fact(tuple(rng.choice(words, size=rng.integers(1, 4))), int(rng.integers(0, 2)),
                      tuple(rng.choice(words, size=rng.integers(1, 4))), i)
                 for i in range(n_facts)]
        with ad.Tape() as tape:
            embed_facts(facts, emb, vocab, params)
        return len(tape.nodes)

    assert nodes(1) == nodes(256)


def test_embed_facts_rejects_empty(vocab):
    params = make_params(np.random.default_rng(0), vocab)
    with pytest.raises(EmptyFactSetError):
        embed_facts([], ad.constant(np.zeros((len(vocab), 4))), vocab, params)


# --- fact distribution ---

def test_fact_distribution_uniform_for_identical_reps(vocab):
    rng = np.random.default_rng(10)
    params = make_params(rng, vocab)
    row = rng.normal(size=5)
    F = ad.constant(np.tile(row, (4, 1)))
    dist = fact_distribution(F, ad.constant(rng.normal(size=3)), params)
    np.testing.assert_allclose(dist.data, np.full(4, 0.25), atol=1e-12)


def test_fact_distribution_single_fact(vocab):
    rng = np.random.default_rng(11)
    params = make_params(rng, vocab)
    dist = fact_distribution(ad.constant(rng.normal(size=(1, 5))),
                             ad.constant(rng.normal(size=3)), params)
    np.testing.assert_allclose(dist.data, [1.0])


def test_fact_distribution_matches_transcription(vocab):
    rng = np.random.default_rng(12)
    params = make_params(rng, vocab)
    F = rng.normal(size=(6, 5))
    s = rng.normal(size=3)
    logits = []
    for i in range(6):
        pre = params.w_fact.data.T @ F[i] + s @ params.u_fact.data + params.b_fact.data
        logits.append(params.gate_fact.data @ np.tanh(pre))
    want = np_softmax(np.array(logits))
    got = fact_distribution(ad.constant(F), ad.constant(s), params)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_fact_argmax_shift_invariant(vocab):
    rng = np.random.default_rng(13)
    params = make_params(rng, vocab)
    F = ad.constant(rng.normal(size=(5, 5)))
    s = ad.constant(rng.normal(size=3))
    logits = fact_logits(F, s, params)
    base = ad.softmax(logits)
    shifted = ad.softmax(ad.add(logits, ad.constant(3.7)))
    assert np.argmax(base.data) == np.argmax(shifted.data)


def test_fact_distribution_empty_raises(vocab):
    params = make_params(np.random.default_rng(0), vocab)
    with pytest.raises(EmptyFactSetError):
        fact_distribution(ad.constant(np.zeros((0, 5))), ad.constant(np.zeros(3)), params)


# --- Gumbel-Softmax ---

def draw(probs, tau, rng, mask=None):
    """One Gumbel sample per row of ``probs``, its uniforms drawn from ``rng``."""
    return gumbel_softmax_sample(probs, tau, uniforms=rng.random(probs.shape), mask=mask)


def test_gumbel_one_hot_target_always_wins():
    rng = np.random.default_rng(14)
    probs = ad.constant([[1e-12, 1.0, 1e-12]])
    for _ in range(200):
        assert draw(probs, 0.5, rng).hard_index.tolist() == [1]


def test_gumbel_low_temperature_near_one_hot():
    rng = np.random.default_rng(15)
    probs = ad.constant([[0.5, 0.5]])
    hits = 0
    for _ in range(200):
        if draw(probs, 0.01, rng).soft.data.max() > 0.99:
            hits += 1
    assert hits >= 198


def test_gumbel_soft_is_simplex():
    rng = np.random.default_rng(16)
    probs = ad.constant([[0.2, 0.5, 0.3], [0.6, 0.3, 0.1]])
    sample = draw(probs, 0.7, rng)
    np.testing.assert_allclose(sample.soft.data.sum(axis=-1), 1.0, atol=1e-9)
    assert sample.hard_index.tolist() == np.argmax(sample.soft.data, axis=-1).tolist()


def test_gumbel_rejects_bad_inputs():
    rng = np.random.default_rng(17)
    with pytest.raises(InvalidScheduleError):
        draw(ad.constant([[0.5, 0.5]]), 0.0, rng)
    with pytest.raises(DegenerateDistributionError):
        draw(ad.constant([[0.5, 0.5], [0.0, 0.0]]), 1.0, rng)


def test_gumbel_gradient_matches_finite_differences_at_fixed_noise():
    base_logits = ad.Tensor(np.array([[0.3, -0.2, 0.8]]), requires_grad=True)
    weights = ad.constant([[1.0, 2.0, 3.0]])

    def f():
        probs = ad.softmax(base_logits)
        sample = draw(probs, 0.8, np.random.default_rng(99))
        return ad.sum(ad.mul(sample.soft, weights))

    report = ad.gradient_check(f, [base_logits], eps=1e-5)
    assert report.max_rel_error < 1e-4, report


def test_gumbel_batch_indices_match_sequential_calls():
    probs_data = np.array([0.6, 0.3, 0.1])
    rng_a = np.random.default_rng(123)
    seq = [draw(ad.constant([probs_data]), 1.0, rng_a).hard_index[0] for _ in range(50)]
    rng_b = np.random.default_rng(123)
    batch = gumbel_hard_indices(probs_data, 50, rng_b)
    np.testing.assert_array_equal(np.array(seq), batch)


def test_gumbel_hard_index_follows_target_distribution():
    probs = np.array([0.7, 0.2, 0.1])
    idx = gumbel_hard_indices(probs, 20000, np.random.default_rng(21))
    freq = np.bincount(idx, minlength=3) / 20000
    assert np.abs(freq - probs).sum() / 2 < 0.02  # total variation


# --- temperature schedule ---

def test_anneal_at_step_zero():
    assert anneal_temperature(0, TemperatureSchedule()) == 1.0


def test_anneal_clamps_at_min():
    sched = TemperatureSchedule(tau0=1.0, tau_min=0.1, rate=1e-4)
    assert anneal_temperature(10**9, sched) == 0.1


def test_anneal_closed_form():
    sched = TemperatureSchedule(tau0=1.0, tau_min=0.1, rate=1e-4)
    got = anneal_temperature(10000, sched)
    assert got == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_anneal_monotone_non_increasing():
    sched = TemperatureSchedule(tau0=2.0, tau_min=0.05, rate=3e-3)
    values = [anneal_temperature(s, sched) for s in range(0, 3000, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_anneal_invalid_schedule():
    with pytest.raises(InvalidScheduleError):
        anneal_temperature(0, TemperatureSchedule(tau_min=0.0))
    with pytest.raises(InvalidScheduleError):
        anneal_temperature(0, TemperatureSchedule(tau0=0.01, tau_min=0.1))


def test_padded_fact_slots_get_zero_weight_and_zero_gradient(vocab):
    """Each example's facts against its own (T, B, H) rows: padded slots get
    exactly zero probability and zero Gumbel weight, and the fact rows behind
    them exactly zero gradient; real slots match the example scored alone."""
    rng = np.random.default_rng(17)
    params = make_params(rng, vocab)
    counts = np.array([1, 4, 3])
    slots = np.arange(4) < counts[:, None]
    facts = ad.Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    mask = ad.constant(np.where(slots, 0.0, sel.MASK_LOGIT))
    s_t = ad.constant(rng.normal(size=(2, 3, 3)))
    with ad.Tape() as tape:
        probs = fact_distribution(facts, s_t, params, mask=mask)
        sample = gumbel_softmax_sample(probs, 0.5, uniforms=rng.uniform(size=probs.shape),
                                       mask=mask)
        loss = ad.sum(ad.mul(ad.add(probs, sample.soft),
                             ad.constant(rng.normal(size=probs.shape))))
    grads = tape.backward(loss)
    assert probs.shape == (2, 3, 4)
    assert (probs.data[:, ~slots] == 0.0).all() and (sample.soft.data[:, ~slots] == 0.0).all()
    # a lone fact has probability 1 whatever its row, so only rows 1-2 move
    assert not grads[facts][~slots].any() and grads[facts][1:][slots[1:]].all()
    for row, n in enumerate(counts):
        alone = fact_distribution(ad.constant(facts.data[row, :n]),
                                  ad.constant(s_t.data[:, row]), params)
        np.testing.assert_allclose(probs.data[:, row, :n], alone.data, rtol=0, atol=1e-15)
