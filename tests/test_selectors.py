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
    gumbel_softmax_sample,
    source_distribution,
    vocab_distribution,
)
from answergen.seq2seq import padding_mask
from answergen.text import PAD, UNK, Vocabulary, padded


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
    """Per-fact numpy transcription of the keys: (W [mean e_s, e_r, mean e_o] + b) w_fact."""
    def pooled(tokens):
        return np.mean([table[vocab.encode(t)] for t in tokens], axis=0)
    feats = np.array([np.concatenate([pooled(f.subject), params.relation_table.data[f.relation],
                                      pooled(f.object)]) for f in facts])
    return (feats @ params.w_fact_embed.data + params.b_fact_embed.data) @ params.w_fact.data


def embed_one(facts, emb, vocab, params):
    """The (1, N_f, A) keys of one example's facts, as beam search embeds them."""
    keys, mask = embed_facts(facts, [len(facts)], emb, vocab, params)
    assert mask is None
    return keys


def test_embed_fact_zero_params_zero_rep(vocab):
    rng = np.random.default_rng(7)
    params = zero_params(make_params(rng, vocab))
    emb = ad.constant(np.random.default_rng(0).normal(size=(len(vocab), 4)))
    rep = embed_one(FACTS, emb, vocab, params)
    np.testing.assert_array_equal(rep.data, np.zeros((1, len(FACTS), 3)))


def test_embed_fact_identity_recovers_pooled_segments(vocab):
    """With W and w_fact identities and b = 0 each key is exactly
    [e_subject, e_relation, e_object], exposing the average pooling."""
    rng = np.random.default_rng(8)
    emb_dim = 4
    params = sel.SelectorParams.init(rng, len(vocab), 2, emb_dim, 3,
                                     fact_dim=3 * emb_dim, attn_dim=3 * emb_dim)
    params.w_fact_embed.data[:] = np.eye(3 * emb_dim)
    params.w_fact.data[:] = np.eye(3 * emb_dim)
    params.b_fact_embed.data[:] = 0.0
    table = np.random.default_rng(1).normal(size=(len(vocab), emb_dim))
    rep = embed_one(FACTS, ad.constant(table), vocab, params).data[0]
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


def reference_gradients(facts, vocab, params, upstream):
    """Per-fact numpy transcription of the embedding and relation-table
    gradients of sum(upstream * keys), upstream (N_f, A)."""
    emb_dim = params.relation_table.shape[1]
    g_feats = upstream @ params.w_fact.data.T @ params.w_fact_embed.data.T
    want_emb = np.zeros((len(vocab), emb_dim))
    want_rel = np.zeros_like(params.relation_table.data)
    for i, fact in enumerate(facts):
        want_rel[fact.relation] += g_feats[i, emb_dim:2 * emb_dim]
        for segment, g in ((fact.subject, g_feats[i, :emb_dim]),
                           (fact.object, g_feats[i, 2 * emb_dim:])):
            for token in segment:
                want_emb[vocab.encode(token)] += g / len(segment)
    return want_emb, want_rel


def test_embed_facts_matches_per_fact(vocab):
    """Values and gradients against a per-fact numpy reference; the PAD row
    that fills short segments gets an exactly zero gradient."""
    rng = np.random.default_rng(9)
    emb_dim = 4
    params = make_params(rng, vocab)
    table = np.random.default_rng(2).normal(size=(len(vocab), emb_dim))
    emb = ad.Tensor(table.copy(), requires_grad=True)
    upstream = rng.normal(size=(len(FACTS), 3))
    with ad.Tape() as tape:
        keys = embed_one(FACTS, emb, vocab, params)
        loss = ad.sum(ad.mul(keys, ad.constant(upstream[None])))
    gm = tape.backward(loss, [emb, params.relation_table])
    np.testing.assert_allclose(keys.data[0], embed_reference(FACTS, table, vocab, params),
                               atol=1e-12)
    want_emb, want_rel = reference_gradients(FACTS, vocab, params, upstream)
    np.testing.assert_allclose(gm[emb], want_emb, atol=1e-12)
    np.testing.assert_allclose(gm[params.relation_table], want_rel, atol=1e-12)
    assert np.all(gm[emb][PAD] == 0.0)


# Subjects shared between facts, a segment that is one fact's subject and
# another's object, and a repeated object: 6 distinct segments of 10.
SHARED = [Fact(("bridge",), 0, ("cross", "water"), 0),
          Fact(("bridge",), 1, ("hawaii",), 1),
          Fact(("water",), 0, ("bridge",), 2),
          Fact(("obama", "born", "obama"), 1, ("cross", "water"), 3),
          Fact(("bridge",), 0, ("x",), 4)]


def recorded_lookups(monkeypatch):
    """The (table, index) of every `ad.lookup` call from here on."""
    reads = []
    lookup = ad.lookup
    monkeypatch.setattr(ad, "lookup", lambda t, ids: reads.append((t, np.asarray(ids)))
                        or lookup(t, ids))
    return reads


def test_embed_facts_pools_each_distinct_segment_once(vocab, monkeypatch):
    """The embedding lookup reads one row group per distinct segment, in
    first-seen order; the keys equal pooling every subject and object on
    its own bit for bit, and the gradients match the per-fact reference."""
    rng = np.random.default_rng(11)
    params = make_params(rng, vocab)
    table = np.random.default_rng(3).normal(size=(len(vocab), 4))
    emb = ad.Tensor(table.copy(), requires_grad=True)
    upstream = rng.normal(size=(len(SHARED), 3))
    reads = recorded_lookups(monkeypatch)
    with ad.Tape() as tape:
        keys = embed_one(SHARED, emb, vocab, params)
        loss = ad.sum(ad.mul(keys, ad.constant(upstream[None])))
    gm = tape.backward(loss, [emb, params.relation_table])

    distinct = [("bridge",), ("water",), ("obama", "born", "obama"), ("cross", "water"),
                ("hawaii",), ("x",)]
    (ids,) = [ids for t, ids in reads if t is emb]
    assert ids.shape == (len(distinct), 3)
    for row, segment in zip(ids, distinct):
        assert list(row[:len(segment)]) == [vocab.encode(t) for t in segment]
        assert np.all(row[len(segment):] == PAD)

    # every subject and object pooled on its own, as one padded array
    segments = [f.subject for f in SHARED] + [f.object for f in SHARED]
    lengths = np.array([len(seg) for seg in segments])[:, None]
    filled = np.arange(3) < lengths
    each = np.full(filled.shape, PAD)
    each[filled] = [vocab.encode(t) for seg in segments for t in seg]
    pooled = np.sum(table[each] * (filled / lengths)[..., None], axis=1)
    n = len(SHARED)
    feats = np.concatenate([pooled[:n], params.relation_table.data[[f.relation for f in SHARED]],
                            pooled[n:]], axis=1)
    want = (feats @ params.w_fact_embed.data + params.b_fact_embed.data) @ params.w_fact.data
    assert keys.data[0].tobytes() == want.tobytes()

    want_emb, want_rel = reference_gradients(SHARED, vocab, params, upstream)
    np.testing.assert_allclose(gm[emb], want_emb, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gm[params.relation_table], want_rel, rtol=0, atol=1e-12)


def test_embed_facts_reads_every_feature_row_in_one_lookup(vocab, monkeypatch):
    """The pooled segments and the relation table are stacked into one
    (D + R, emb) table, read once by a (B, N_f, 3) index of subject slot,
    D + relation and object slot: nine nodes in all, the w_fact projection
    included. The relation table's gradient adds its rows in fact order,
    byte for byte ``np.add.at`` into zeros."""
    rng = np.random.default_rng(12)
    params = make_params(rng, vocab)
    emb = ad.Tensor(np.random.default_rng(4).normal(size=(len(vocab), 4)), requires_grad=True)
    upstream = rng.normal(size=(len(SHARED), 3))
    reads = recorded_lookups(monkeypatch)
    with ad.Tape() as tape:
        keys = embed_one(SHARED, emb, vocab, params)
        loss = ad.sum(ad.mul(keys, ad.constant(upstream[None])))
    assert len(tape.nodes) == 9 + 2  # and the loss's mul and sum
    gm = tape.backward(loss, [emb, params.relation_table])

    (table, index), = [(t, ids) for t, ids in reads if t is not emb]
    assert table.shape == (6 + 2, 4)
    assert table.data[6:].tobytes() == params.relation_table.data.tobytes()
    np.testing.assert_array_equal(index, [[[0, 6, 3], [0, 7, 4], [1, 6, 0], [2, 7, 3],
                                           [0, 6, 5]]])
    g_feats = upstream @ params.w_fact.data.T @ params.w_fact_embed.data.T
    want_rel = np.zeros_like(params.relation_table.data)
    np.add.at(want_rel, [f.relation for f in SHARED], g_feats[:, 4:8])
    assert gm[params.relation_table].tobytes() == want_rel.tobytes()


@pytest.mark.parametrize("counts", [[3, 1, 0, 4], [4, 4]], ids=["padded", "full"])
def test_embed_facts_puts_each_example_in_its_slots(vocab, monkeypatch, counts):
    """A batch's keys hold example b's facts in its first counts[b] slots,
    each equal to the example's keys embedded alone; a padded slot reads
    fact 0's rows, and the mask gives it MASK_LOGIT, where a full batch has
    no mask. Either way the only lookups are the segment rows' and one of
    the (D + R, emb) table: no slot gather of embedded facts."""
    rng = np.random.default_rng(13)
    params = make_params(rng, vocab)
    emb = ad.constant(np.random.default_rng(5).normal(size=(len(vocab), 4)))
    facts = SHARED + FACTS
    reads = recorded_lookups(monkeypatch)
    keys, mask = embed_facts(facts, counts, emb, vocab, params)
    (segment_rows, _), (table, _) = reads
    assert segment_rows is emb and table.shape == (8 + 2, 4)  # 8 distinct segments

    slots = np.arange(max(counts)) < np.array(counts)[:, None]
    assert keys.shape == slots.shape + (3,)
    if slots.all():
        assert mask is None
    else:
        np.testing.assert_array_equal(mask.data, np.where(slots, 0.0, sel.MASK_LOGIT))
    assert (keys.data[~slots] == keys.data[0, 0]).all()
    monkeypatch.undo()
    start = 0
    for b, n in enumerate(counts):
        if n:
            alone = embed_one(facts[start:start + n], emb, vocab, params).data[0]
            np.testing.assert_allclose(keys.data[b, :n], alone, rtol=0, atol=1e-12)
        start += n


def embed_facts_oracle(facts, counts, embeddings, vocab, params):
    """The dict-and-list algorithm the vocabulary's segment table replaced:
    distinct segments by surface form in a dict, in first-seen order, one
    token-id list each, and the slots cut by ``np.split``."""
    n = len(facts)
    distinct = {}
    slots = [distinct.setdefault(seg, len(distinct))
             for seg in [f.subject for f in facts] + [f.object for f in facts]]
    ids, filled = padded([[vocab.id_by_token.get(t, UNK) for t in seg] for seg in distinct], PAD)
    weights = (filled / filled.sum(axis=1, keepdims=True))[..., None]
    rows = ad.lookup(embeddings, ids)
    table = ad.concat([ad.sum(ad.mul(rows, ad.constant(weights)), axis=1),
                       params.relation_table])
    index = np.column_stack([slots[:n], [len(distinct) + f.relation for f in facts], slots[n:]])
    fact_ids, in_slot = padded(np.split(np.arange(n), np.cumsum(counts)[:-1]), 0)
    feats = ad.lookup(table, index[fact_ids])
    hidden = ad.add(ad.matmul(ad.reshape(feats, fact_ids.shape + (-1,)), params.w_fact_embed),
                    params.b_fact_embed)
    return ad.matmul(hidden, params.w_fact), padding_mask(in_slot)


def random_fact_batch(rng, words, n_examples):
    """Facts of ``n_examples`` examples, one of them without facts, over
    ``words``: segments of 1-3 tokens, repeated within and across examples."""
    pool = [tuple(rng.choice(words, size=rng.integers(1, 4))) for _ in range(12)]
    counts = [int(c) for c in rng.integers(1, 7, size=n_examples)]
    counts[int(rng.integers(n_examples))] = 0
    facts = [Fact(pool[rng.integers(len(pool))], int(rng.integers(0, 2)),
                  pool[rng.integers(len(pool))], i) for i in range(sum(counts))]
    return facts, counts


@pytest.mark.parametrize("seed", range(4))
def test_embed_facts_equals_the_dict_and_list_oracle(vocab, monkeypatch, seed):
    """Keys, mask, the segment rows read and the gradients of the
    embedding, the relation table and w_fact_embed equal the oracle's bit
    for bit. The batch holds distinct OOV segments whose id rows are equal
    (all UNK), segments shared across examples and an example without
    facts; the table was filled before, in another order, and the batch
    brings a segment longer than any it holds."""
    rng = np.random.default_rng(40 + seed)
    params = make_params(rng, vocab)
    oov = ["zebra", "quark", "umbra"]
    facts, counts = random_fact_batch(rng, vocab.token_by_id[4:] + oov, 4)
    facts.append(Fact(("quark", "zebra", "umbra", "zebra", "quark"), 1, ("umbra",), len(facts)))
    counts[-1] += 1
    earlier = list({seg: None for f in facts for seg in (f.object, f.subject)
                    if len(seg) < 5})
    for segment in earlier[::-1]:
        vocab.segments[segment]
    vocab.segments.rows(np.arange(len(vocab.segments)))
    longest = np.diff(vocab.segments.bounds[:len(vocab.segments) + 1]).max()
    upstream = rng.normal(size=(len(counts), max(counts), 3))
    emb = ad.Tensor(np.random.default_rng(seed).normal(size=(len(vocab), 4)), requires_grad=True)
    wrt = [emb, params.relation_table, params.w_fact_embed]

    def run(embed):
        reads = recorded_lookups(monkeypatch)
        with ad.Tape() as tape:
            keys, mask = embed(facts, counts, emb, vocab, params)
            loss = ad.sum(ad.mul(keys, ad.constant(upstream)))
        gm = tape.backward(loss, wrt)
        monkeypatch.undo()
        (segment_rows,) = [ids for t, ids in reads if t is emb]
        return keys.data, mask.data, segment_rows, [gm[t] for t in wrt]

    got, want = run(embed_facts), run(embed_facts_oracle)
    assert np.diff(vocab.segments.bounds[:len(vocab.segments) + 1]).max() == 5 > longest
    for a, b in zip(got[:3] + tuple(got[3]), want[:3] + tuple(want[3])):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


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
            embed_one(facts, emb, vocab, params)
        return len(tape.nodes)

    assert nodes(1) == nodes(256)


def test_embed_facts_rejects_empty(vocab):
    params = make_params(np.random.default_rng(0), vocab)
    with pytest.raises(EmptyFactSetError):
        embed_facts([], [0], ad.constant(np.zeros((len(vocab), 4))), vocab, params)


# --- fact distribution ---

def project(fact_matrix, params):
    """The fact keys the fact heads take: the fact matrix times w_fact."""
    return ad.matmul(fact_matrix, params.w_fact)


def test_fact_distribution_uniform_for_identical_reps(vocab):
    rng = np.random.default_rng(10)
    params = make_params(rng, vocab)
    row = rng.normal(size=5)
    F = ad.constant(np.tile(row, (4, 1)))
    dist = fact_distribution(project(F, params), ad.constant(rng.normal(size=3)), params)
    np.testing.assert_allclose(dist.data, np.full(4, 0.25), atol=1e-12)


def test_fact_distribution_single_fact(vocab):
    rng = np.random.default_rng(11)
    params = make_params(rng, vocab)
    dist = fact_distribution(project(ad.constant(rng.normal(size=(1, 5))), params),
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
    got = fact_distribution(project(ad.constant(F), params), ad.constant(s), params)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_fact_argmax_shift_invariant(vocab):
    rng = np.random.default_rng(13)
    params = make_params(rng, vocab)
    F = ad.constant(rng.normal(size=(5, 5)))
    s = ad.constant(rng.normal(size=3))
    logits = fact_logits(project(F, params), s, params)
    base = ad.softmax(logits)
    shifted = ad.softmax(ad.add(logits, ad.constant(3.7)))
    assert np.argmax(base.data) == np.argmax(shifted.data)


def test_fact_distribution_empty_raises(vocab):
    params = make_params(np.random.default_rng(0), vocab)
    with pytest.raises(EmptyFactSetError):
        fact_distribution(project(ad.constant(np.zeros((0, 5))), params),
                          ad.constant(np.zeros(3)), params)


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


def test_gumbel_hard_index_follows_target_distribution():
    """The sampler training uses, on one row broadcast against 20K rows of
    uniforms, draws each index with its probability."""
    probs = np.array([0.7, 0.2, 0.1])
    idx = gumbel_softmax_sample(ad.constant([probs]), 1.0,
                                uniforms=np.random.default_rng(21).random((20000, 3))).hard_index
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
        probs = fact_distribution(project(facts, params), s_t, params, mask=mask)
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
        alone = fact_distribution(project(ad.constant(facts.data[row, :n]), params),
                                  ad.constant(s_t.data[:, row]), params)
        np.testing.assert_allclose(probs.data[:, row, :n], alone.data, rtol=0, atol=1e-15)
