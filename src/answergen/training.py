"""Training: the variational objective over a padded batch of examples,
the optimization loop, and checkpoint serialization.

The per-word log-likelihood lower bound at step t is
    E_{y_t}[ log P(w_{t+1} | y_t) ]
with the expectation either enumerated exactly against P(y_t) or estimated
by Gumbel-Softmax samples whose soft vector mixes the four per-source log
terms (the default single-sample estimator used in training). Per-source
likelihoods of the teacher-forced target are floored at 1e-12 before the
log, so an infeasible source contributes log(1e-12) instead of blowing up
the objective. The coverage penalty is added with weight lambda_cov.

A batch runs as one padded computation. Its questions, passages, decoder
inputs and fact segments are one embedding lookup each; each encoder
direction is one `lstm_seq` over the (B, N, .) batch with per-row lengths;
the decoder makes T_max steps of (B, .) rows. Under teacher forcing no head
output feeds back into the recurrence, so the decoder loop only advances the
state, and the vocabulary, source and fact heads, the Gumbel relaxation, the
likelihoods and the coverage penalty run once over the (T, B, .) rows
afterwards, time-major as the loop stacks them. The penalty is one
`coverage_penalty` per side, of the stacked attentions against the stacked
pre-step coverages that the loop's states carry. Padded encoder positions,
padded fact slots and the fact rows of examples without facts get an
additive MASK_LOGIT before each softmax, so they get exactly zero weight and
zero gradient, and a (T, B) step mask keeps padded steps out of the bound
and the coverage penalty.

The Gumbel noise is drawn per example, in batch order, and per step within
an example: the fact sample, then the source samples. One example's loss is
a batch of one through the same code, and a batch's loss is the sum of its
examples' losses to rounding.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .config import RunConfig, TrainingConfig
from .errors import (
    CorruptFileError,
    DataError,
    NonFiniteGradientError,
    NonFiniteLossError,
    NonFiniteValueError,
    VersionMismatchError,
)
from .files import replace_file
from .knowledge import Fact, KnowledgeBase, extract_related_facts, resolve_facts
from .model import AnswerModel
from .seq2seq import MASK_LOGIT, coverage_penalty
from .selectors import (
    PROB_FLOOR,
    TemperatureSchedule,
    anneal_temperature,
    embed_facts,
    fact_distribution,
    gumbel_softmax_sample,
    source_distribution,
    vocab_distribution,
)
from .text import (
    BOS,
    EOS_TOKEN_SENTINEL,
    PAD,
    UNK,
    EncodeLimits,
    Example,
    Vocabulary,
    encode_example,
)

CHECKPOINT_MAGIC = b"AGCP"
# 2: sel.u_fact stored (H, A); 3: every weight stored (in, out);
# 4: the trailing checksum is sha256 cut to 8 bytes, not blake2b;
# 5: the knowledge base's relation names, in relation-id order, follow the config;
# 6: one JSON header, holding CheckpointData's fields and the tensor shapes
CHECKPOINT_VERSION = 6
CHECKSUM_BYTES = 8


@dataclass
class ElboDiagnostics:
    n_tokens: int
    objective: float          # sum_t of the per-step expected log term
    coverage: float           # sum_t of both coverage penalties
    source_counts: np.ndarray  # 4-vector of selected-source tallies
    # (T, 4) per-timestep rows of one example, for external verification of
    # the bound; (T_max, B, 4) for a batch, meaningless past an example's end:
    step_source_probs: np.ndarray
    step_log_likelihoods: np.ndarray


@dataclass
class TrainItem:
    example: Example
    facts: list[Fact] = field(default_factory=list)


def encode_dataset(records, vocab: Vocabulary, cfg: RunConfig,
                   kb: KnowledgeBase | None) -> list[TrainItem]:
    """Each record encoded under ``cfg.data``'s limits, with its related
    facts from ``kb`` when there is one and knowledge is enabled. A record
    that cannot be encoded raises DataError naming its index."""
    limits = EncodeLimits(passage=cfg.data.passage_limit, answer=cfg.data.answer_limit)
    items = []
    for i, rec in enumerate(records):
        try:
            example = encode_example(rec.question, rec.passage, rec.answer, vocab, limits)
        except DataError as exc:
            raise DataError(f"record {i}: {exc}") from None
        facts = []
        if kb is not None and cfg.knowledge.enabled:
            scored = extract_related_facts(kb, example.question_tokens,
                                           example.passage_tokens,
                                           cfg.knowledge.max_facts)
            facts = resolve_facts(kb, scored)
        items.append(TrainItem(example, facts))
    return items


def teacher_inputs(example: Example) -> tuple[list[int], list[tuple[int, str]]]:
    """Decoder inputs (gold shifted right behind BOS) and (id, surface) targets.

    The closing EOS target gets a sentinel surface string no tokenizer output
    can collide with, so copy and knowledge masks never match it.
    """
    inputs = [BOS] + example.answer_ids[:-1]
    raws = list(example.answer_tokens) + [EOS_TOKEN_SENTINEL] * len(example.answer_ids)
    return inputs, list(zip(example.answer_ids, raws))


def elbo_loss(model: AnswerModel, example: Example, facts: Sequence[Fact],
              tau: float, rng: np.random.Generator, *, mode: str = "gumbel",
              mc_samples: int = 1, lambda_cov: float = 1.0,
              knowledge_enabled: bool = True) -> tuple[Tensor, ElboDiagnostics]:
    """Negative lower bound (plus coverage penalty) for one example.

    mode "gumbel" is the training estimator; "exact" enumerates the 4-way
    expectation against P(y) and marginalizes the fact choice; "marginal"
    computes the exact log-marginal likelihood (the quantity the bound
    relaxes), used to verify the Jensen gap. It is `batch_elbo_loss` over a
    batch of one.
    """
    loss, diag = batch_elbo_loss(model, [TrainItem(example, list(facts))], tau, rng,
                                 mode=mode, mc_samples=mc_samples, lambda_cov=lambda_cov,
                                 knowledge_enabled=knowledge_enabled)
    diag.step_source_probs = diag.step_source_probs[:, 0]
    diag.step_log_likelihoods = diag.step_log_likelihoods[:, 0]
    return loss, diag


def _padded(rows, fill: int) -> np.ndarray:
    """The rows as one (len(rows), longest) int array, filled out with ``fill``."""
    out = np.full((len(rows), max(map(len, rows))), fill, dtype=np.intp)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def batch_elbo_loss(model: AnswerModel, batch: Sequence[TrainItem], tau: float,
                    rng: np.random.Generator, *, mode: str = "gumbel",
                    mc_samples: int = 1, lambda_cov: float = 1.0,
                    knowledge_enabled: bool = True) -> tuple[Tensor, ElboDiagnostics]:
    """The sum over ``batch`` of each example's `elbo_loss`, computed as one
    padded (T, B, .) batch."""
    if mode not in ("gumbel", "exact", "marginal"):
        raise ValueError(f"unknown elbo mode {mode!r}")
    examples = [item.example for item in batch]
    fact_sets = [list(item.facts) if knowledge_enabled else [] for item in batch]
    n_batch, n_facts = len(batch), max(len(facts) for facts in fact_sets)
    has_facts = np.array([len(facts) > 0 for facts in fact_sets])
    knowledge_ok = bool(has_facts.any())
    enc_q = model.encode_question([ex.question_ids for ex in examples])
    enc_p = model.encode_passage([ex.passage_ids for ex in examples])

    teacher = [teacher_inputs(ex) for ex in examples]
    steps = np.array([len(inputs) for inputs, _ in teacher])
    n_steps = int(steps.max())
    valid = np.arange(n_steps)[:, None] < steps                        # (T, B)
    input_ids = _padded([inputs for inputs, _ in teacher], PAD).T     # (T, B)
    x = ad.lookup(model.embedding, input_ids)                          # (T, B, emb)
    states, outs = [model.initial_state(enc_q, enc_p)], []
    for t in range(n_steps):
        outs.append(model.step(enc_q, enc_p, states[-1], ad.lookup(x, t)))
        states.append(outs[-1].state)

    def rows(items, name: str) -> Tensor:
        return ad.stack([getattr(item, name) for item in items])     # (T, B, .)

    s, c_q, c_p = (rows(states[1:], name) for name in ("h", "c_q", "c_p"))
    a_q, a_p = rows(outs, "a_q"), rows(outs, "a_p")
    p_vocab = vocab_distribution(c_q, c_p, s, model.selector)         # (T, B, |V|)
    p_source = source_distribution(c_q, c_p, s, x, model.selector,
                                   knowledge_available=has_facts)     # (T, B, 4)
    p_fact = fact_mask = None
    if knowledge_ok:
        # every example's facts are embedded in one call, then gathered into
        # (B, N_f) slots; padded slots point at fact 0 and are masked
        slots = np.arange(n_facts) < np.array([len(f) for f in fact_sets])[:, None]
        slot_ids = np.zeros(slots.shape, dtype=np.intp)
        slot_ids[slots] = np.arange(slots.sum())
        fact_mask = ad.constant(np.where(slots, 0.0, MASK_LOGIT))
        fact_matrix = ad.lookup(embed_facts([f for facts in fact_sets for f in facts],
                                            model.embedding, model.vocab, model.selector),
                                slot_ids)                             # (B, N_f, fact_dim)
        p_fact = fact_distribution(fact_matrix, s, model.selector, mask=fact_mask)
    step_weight = valid.astype(float)                                  # (T, B)

    if mode == "gumbel":
        # one draw per example of (T_b, N_f_b + 4 mc) uniforms: per step, the
        # fact noise, then each source sample's
        u_fact = np.full((n_steps, n_batch, n_facts), 0.5)
        u_source = np.full((n_steps, n_batch, mc_samples, 4), 0.5)
        for b, facts in enumerate(fact_sets):
            u = rng.random((steps[b], len(facts) + 4 * mc_samples))
            u_fact[:steps[b], b, :len(facts)] = u[:, :len(facts)]
            u_source[:steps[b], b] = u[:, len(facts):].reshape(steps[b], mc_samples, 4)
        draws = gumbel_softmax_sample(ad.reshape(p_source, (n_steps, n_batch, 1, 4)), tau,
                                      uniforms=u_source)              # (T, B, mc, 4)
        source_counts = np.bincount(draws.hard_index[valid].reshape(-1),
                                    minlength=4) / mc_samples
        source_weights = ad.mul(ad.sum(draws.soft, axis=2), ad.constant(1.0 / mc_samples))
        fact_weights = gumbel_softmax_sample(p_fact, tau, uniforms=u_fact,
                                             mask=fact_mask).soft if knowledge_ok else None
    else:
        source_counts = np.bincount(np.argmax(p_source.data, axis=-1)[valid],
                                    minlength=4).astype(float)
        fact_weights, source_weights = p_fact, p_source

    # Surface forms as small ints, so matching a target is an array compare;
    # padding gets codes that match nothing.
    codes: dict[str, int] = {}

    def coded(token_lists, pad: int) -> np.ndarray:
        return _padded([[codes.setdefault(tok, len(codes)) for tok in tokens]
                        for tokens in token_lists], pad)

    target_codes = coded([[raw for _, raw in targets] for _, targets in teacher], -1).T  # (T, B)

    def matched(token_lists, weights: Tensor) -> Tensor:
        """(T, B, 1) weight on the tokens whose surface form is step t's target."""
        mask = target_codes[..., None] == coded(token_lists, -2)[None]   # (T, B, N)
        return ad.reshape(ad.sum(ad.mul(ad.constant(mask.astype(float)), weights), axis=-1),
                          (n_steps, n_batch, 1))

    target_ids = _padded([[i for i, _ in targets] for _, targets in teacher], PAD).T
    # the vocabulary cannot emit an OOV surface form, so UNK targets get 0
    n_vocab = p_vocab.shape[-1]
    like_v = ad.mul(ad.lookup(ad.reshape(p_vocab, (-1, 1)),
                              np.arange(valid.size).reshape(valid.shape) * n_vocab + target_ids),
                    ad.constant((valid & (target_ids != UNK))[..., None].astype(float)))
    like_k = matched([[f.object[0] for f in facts] for facts in fact_sets], fact_weights) \
        if knowledge_ok else ad.constant(np.zeros((n_steps, n_batch, 1)))
    likes = ad.add(ad.concat([matched([ex.question_tokens for ex in examples], a_q),
                              matched([ex.passage_tokens for ex in examples], a_p),
                              like_v, like_k], axis=-1),
                   ad.constant(PROB_FLOOR))                           # (T, B, 4)
    logs = ad.log(likes)
    if mode == "marginal":  # sum_t log sum_y P(y) * likelihood_y
        objective = ad.sum(ad.mul(ad.log(ad.sum(ad.mul(p_source, likes), axis=-1)),
                                  ad.constant(step_weight)))
    else:
        objective = ad.sum(ad.mul(ad.mul(source_weights, logs),
                                  ad.constant(step_weight[..., None])))
    cov_total = ad.sum(ad.mul(ad.add(coverage_penalty(a_q, rows(states[:-1], "cov_q")),
                                     coverage_penalty(a_p, rows(states[:-1], "cov_p"))),
                              ad.constant(step_weight)))

    loss = ad.add(ad.mul(objective, ad.constant(-1.0)),
                  ad.mul(cov_total, ad.constant(lambda_cov)))
    if not np.isfinite(loss.data):
        raise NonFiniteLossError("loss is not finite")
    diag = ElboDiagnostics(
        n_tokens=int(steps.sum()),
        objective=float(objective.data),
        coverage=float(cov_total.data),
        source_counts=source_counts,
        step_source_probs=p_source.data.copy(),
        step_log_likelihoods=logs.data.copy(),
    )
    return loss, diag


# ---------------------------------------------------------------------------
# Optimization.
# ---------------------------------------------------------------------------

# Adam works through each parameter in blocks of this many entries (256 KiB),
# so a block's slices of p, g, m and v and the scratch buffers stay in cache
# while the dozen ufuncs of one update pass over them.
ADAM_BLOCK = 32 * 1024


class Adam:
    """Per-parameter adaptive steps; moments keyed by parameter name.

    ``step`` updates every parameter in place, one ``ADAM_BLOCK`` of entries
    at a time, with the operations of
        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
    in that order, so it makes no full-size temporary. Given a clip
    ``scale``, each block's g is first ``g * scale`` in a scratch buffer: the
    product scaling the whole gradient would give, without writing it.

    The update is elementwise, so disjoint blocks may run on different
    threads with every bit unchanged. The thread count is the number of CPUs
    this process may run on, fixed at construction. The whole blocks, in
    parameter order, are cut into that many contiguous shares: the calling
    thread runs the first, one worker thread each of the others, and after
    the join the calling thread runs the partial blocks and the parameters
    smaller than a block. numpy releases the interpreter lock inside each
    ufunc over a whole block, but a small job's time is mostly Python, and
    threads running small jobs contend for the lock. With one CPU, or fewer
    than two whole blocks per thread, every block runs on the calling
    thread in parameter order. Each thread has its own three scratch buffers,
    and no thread outlives ``step``.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros(p.data.size) for name, p in params.items()}
        self.v = {name: np.zeros(p.data.size) for name, p in params.items()}
        cpus = len(os.sched_getaffinity(0))
        whole_blocks = sum(m.size // ADAM_BLOCK for m in self.m.values())
        threads = cpus if cpus > 1 and whole_blocks >= 2 * cpus else 1
        self._scratch = [tuple(np.empty(ADAM_BLOCK) for _ in range(3)) for _ in range(threads)]

    def step(self, grads: dict[str, np.ndarray], scale: float | None = None) -> None:
        """Validate every parameter and gradient, then update; a bad entry
        leaves ``t``, the parameters and the moments as they were."""
        flat = []
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                raise ValueError(f"parameter {name} is not contiguous; Adam updates it in place")
            g = grads[name]
            if g.shape != p.data.shape:
                raise ValueError(f"gradient of {name} has shape {g.shape}, "
                                 f"the parameter {p.data.shape}")
            flat.append((p.data.reshape(-1), g.reshape(-1), self.m[name], self.v[name]))
        self.t += 1
        bias = (1 - self.beta1 ** self.t, 1 - self.beta2 ** self.t)
        jobs = [(arrays, start) for arrays in flat for start in range(0, arrays[0].size, ADAM_BLOCK)]
        threads = len(self._scratch)
        if threads == 1:
            self._update(jobs, self._scratch[0], bias, scale)
            return
        whole = [(arrays, start) for arrays, start in jobs if start + ADAM_BLOCK <= arrays[0].size]
        partial = [(arrays, start) for arrays, start in jobs if start + ADAM_BLOCK > arrays[0].size]
        cuts = [len(whole) * i // threads for i in range(threads + 1)]
        shares = [whole[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        with ThreadPoolExecutor(threads - 1) as pool:
            futures = [pool.submit(self._update, share, scratch, bias, scale)
                       for share, scratch in zip(shares[1:], self._scratch[1:])]
            self._update(shares[0], self._scratch[0], bias, scale)
            for future in futures:
                future.result()
        self._update(partial, self._scratch[0], bias, scale)

    def _update(self, jobs, scratch, bias: tuple[float, float], scale: float | None) -> None:
        """Update the (arrays, block start) jobs in order, in one thread's
        scratch buffers; ``bias`` is the pair (c1, c2)."""
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = bias
        for (flat_p, g_all, m_all, v_all), start in jobs:
            block = slice(start, start + ADAM_BLOCK)
            w, g, m, v = flat_p[block], g_all[block], m_all[block], v_all[block]
            s1, s2, s3 = (buf[:w.size] for buf in scratch)
            if scale is not None:
                g = np.multiply(g, scale, out=s3)
            np.multiply(m, b1, out=m)
            np.multiply(g, 1 - b1, out=s1)
            np.add(m, s1, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1 - b2, out=s1)
            np.multiply(s1, g, out=s1)
            np.add(v, s1, out=v)
            np.divide(m, c1, out=s1)
            np.multiply(s1, lr, out=s1)
            np.divide(v, c2, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, eps, out=s2)
            np.divide(s1, s2, out=s1)
            np.subtract(w, s1, out=w)


def clip_global_norm(squares: Iterable[float], max_norm: float) -> tuple[float, float | None]:
    """The joint L2 norm of gradients with these sums of squares, and the
    factor that brings it down to max_norm (None when it is within it)."""
    total = 0.0
    for sq in squares:  # one add at a time, in order: sum() compensates from Python 3.12 on
        total += sq
    norm = float(np.sqrt(total))
    return norm, (max_norm / norm if norm > max_norm and norm > 0 else None)


@dataclass
class StepMetrics:
    step: int
    loss: float
    loss_per_token: float
    tau: float
    grad_norm: float
    source_freqs: list[float]
    skipped: bool = False


def train_step(model: AnswerModel, batch: Sequence[TrainItem], optimizer: Adam,
               tau: float, rng: np.random.Generator, cfg: TrainingConfig,
               step: int, knowledge_enabled: bool = True) -> StepMetrics:
    """One gradient step on the mean batch loss; non-finite gradients skip
    the update rather than poisoning the parameters."""
    registry = model.parameters
    with Tape() as tape:
        total, diag = batch_elbo_loss(model, batch, tau, rng, mode="gumbel",
                                      mc_samples=cfg.mc_samples, lambda_cov=cfg.lambda_cov,
                                      knowledge_enabled=knowledge_enabled)
        mean_loss = ad.mul(total, ad.constant(1.0 / len(batch)))
    try:
        gmap = tape.backward(mean_loss, params=registry.values())
    except NonFiniteGradientError:
        gmap = None
    norm = float("nan")
    if gmap is not None:
        norm, scale = clip_global_norm([gmap.squares[t] for t in registry.values()],
                                       cfg.clip_norm)
        optimizer.step({name: gmap[t] for name, t in registry.items()}, scale)
    counts = diag.source_counts
    return StepMetrics(step=step, loss=float(mean_loss.data),
                       loss_per_token=float(total.data) / max(1, diag.n_tokens), tau=tau,
                       grad_norm=norm, source_freqs=(counts / max(1.0, counts.sum())).tolist(),
                       skipped=gmap is None)


def _batches(n_items: int, batch_size: int, shuffle_rng: np.random.Generator):
    """Endless shuffled batch index stream, reshuffled each epoch."""
    while True:
        order = shuffle_rng.permutation(n_items)
        for start in range(0, n_items, batch_size):
            chunk = order[start:start + batch_size]
            if len(chunk) > 0:
                yield chunk


def train(model: AnswerModel, dataset: Sequence[TrainItem], cfg: TrainingConfig,
          on_step: Callable[[StepMetrics], bool | None] | None = None) -> list[StepMetrics]:
    """Run up to cfg.max_steps optimization steps; returns the metric history.

    After each step, ``on_step`` (if given) gets that step's metrics; when it
    returns True the run stops after that step. The batches and the noise do
    not depend on the callback, so the steps it lets run are those of a run
    without it.
    """
    seq = np.random.SeedSequence(cfg.seed)
    shuffle_seed, sample_seed = seq.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    sample_rng = np.random.default_rng(sample_seed)
    schedule = TemperatureSchedule(cfg.tau0, cfg.tau_min, cfg.anneal_rate).validate()
    optimizer = Adam(model.parameters, lr=cfg.lr)
    batch_stream = _batches(len(dataset), cfg.batch_size, shuffle_rng)
    history: list[StepMetrics] = []
    for step in range(cfg.max_steps):
        tau = anneal_temperature(step, schedule)
        batch = [dataset[i] for i in next(batch_stream)]
        history.append(train_step(model, batch, optimizer, tau, sample_rng, cfg, step))
        if on_step is not None and on_step(history[-1]):
            break
    return history


# ---------------------------------------------------------------------------
# Checkpoints: a JSON header, the raw tensor buffers and a trailing checksum.
# ---------------------------------------------------------------------------

@dataclass
class CheckpointData:
    step: int
    vocab_hash: int
    config: dict
    tensors: dict[str, np.ndarray]
    relation_names: list[str]  # rows of sel.relations


CHECKPOINT_FIELDS = {f.name for f in fields(CheckpointData)}


def _is_tensor_entry(entry) -> bool:
    """Whether a header's tensor entry is [name, shape], a shape being a
    list of non-negative ints."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(d) is int and d >= 0 for d in entry[1]))


def _digest(hasher) -> bytes:
    return hasher.digest()[:CHECKSUM_BYTES]


def save_checkpoint(model: AnswerModel, step: int, config: RunConfig, path, *,
                    relation_names: Sequence[str] = ()) -> None:
    """Write magic, a ``<II`` (version, header length) pair, the JSON header,
    each tensor's little-endian float64 buffer handed to the file as is, and
    the checksum, taken over the same chunks as they go out.
    ``relation_names`` are the knowledge base's relations in id order, the
    order of the relation table's rows; generation checks its KB against them."""
    tensors = {name: np.ascontiguousarray(t.data, dtype="<f8")
               for name, t in model.parameters.items()}
    header = json.dumps({
        "step": step, "vocab_hash": model.vocab.content_hash(), "config": config.to_dict(),
        "relation_names": list(relation_names),
        "tensors": [[name, list(data.shape)] for name, data in tensors.items()],
    }, sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(header)), header,
             *(memoryview(data) for data in tensors.values())]

    def chunks():
        hasher = hashlib.sha256()
        for part in parts:
            hasher.update(part)
            yield part
        yield _digest(hasher)

    replace_file(path, chunks())


def load_checkpoint(path) -> CheckpointData:
    """Read the file into one buffer; the tensors are views into it.

    Magic and version are read before the checksum, so a file of another
    version is refused as such rather than as corrupt.
    """
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        fh.readinto(buf)
    prefix = len(CHECKPOINT_MAGIC) + struct.calcsize("<II")
    if len(buf) < prefix + CHECKSUM_BYTES:
        raise CorruptFileError("checkpoint too short")
    if buf[:4] != CHECKPOINT_MAGIC:
        raise CorruptFileError("not a checkpoint file")
    version, header_len = struct.unpack_from("<II", buf, 4)
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    end = len(buf) - CHECKSUM_BYTES
    if _digest(hashlib.sha256(memoryview(buf)[:end])) != buf[end:]:
        raise CorruptFileError("checkpoint checksum mismatch")
    offset = prefix + header_len
    try:
        header = json.loads(buf[prefix:offset])
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError from the bytes
        raise CorruptFileError(f"checkpoint header is not JSON: {exc}") from None
    if not isinstance(header, dict) or header.keys() != CHECKPOINT_FIELDS:
        raise CorruptFileError(f"checkpoint header must hold exactly {sorted(CHECKPOINT_FIELDS)}")
    entries = header.pop("tensors")
    if not (type(header["step"]) is int and type(header["vocab_hash"]) is int
            and isinstance(header["config"], dict)
            and isinstance(header["relation_names"], list)
            and all(isinstance(name, str) for name in header["relation_names"])
            and isinstance(entries, list) and all(map(_is_tensor_entry, entries))):
        raise CorruptFileError("malformed checkpoint header")
    tensors: dict[str, np.ndarray] = {}
    for name, shape in entries:
        count = math.prod(shape)
        if offset + 8 * count > end:
            raise CorruptFileError("checkpoint tensor runs past the end of the file")
        tensors[name] = np.frombuffer(buf, dtype="<f8", count=count,
                                      offset=offset).reshape(shape)
        offset += 8 * count
    if offset != end:
        raise CorruptFileError("trailing bytes in checkpoint")
    return CheckpointData(tensors=tensors, **header)


def restore_model(model: AnswerModel, ckpt: CheckpointData) -> None:
    """Copy checkpoint tensors into the model, validating identity and that
    every value is finite; on an error the model is left as it was."""
    if ckpt.vocab_hash != model.vocab.content_hash():
        raise VersionMismatchError("checkpoint was trained with a different vocabulary")
    registry = model.parameters
    if set(ckpt.tensors) != set(registry):
        missing = set(registry) - set(ckpt.tensors)
        extra = set(ckpt.tensors) - set(registry)
        raise VersionMismatchError(f"parameter names differ (missing {missing}, extra {extra})")
    for name, arr in ckpt.tensors.items():
        if registry[name].data.shape != arr.shape:
            raise VersionMismatchError(f"shape of {name} differs")
        if not np.isfinite(arr).all():
            raise NonFiniteValueError(f"checkpoint tensor {name} holds non-finite values")
    for name, arr in ckpt.tensors.items():
        registry[name].data[:] = arr
