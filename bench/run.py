"""answergen benchmark: one workload, from a seed, end to end or traced.

    python3 bench/run.py --workload kb-dense --seed 1 --seconds 30 --trace 0

The run writes the workload's JSONL training data, its generate requests and
its kb.tsv, then drives the library in-process the way ``answergen train``
and ``answergen generate`` do:

* set-up: ingest the KB, load the dataset, build the vocabulary, encode
  every record with its related facts, build the model from the seed, and
  save and reload a checkpoint. It runs ``setup_reps`` times, once before the
  cycles and once after each of the first cycles; setup_s is the median;
* at least ``CYCLES`` cycles, ``MIN_ANSWERS`` answers and ``--seconds``, of:
  - a train round: a closed loop of ``train_step`` calls, one per fixed
    batch. Training carries on from round to round with one optimizer, so
    every round does the same work on weights that keep learning.
    train_loss_final is the mean loss of round ``CYCLES`` (after
    ``CYCLES - 1`` updates per batch), so backward, clipping and Adam all
    move it;
  - a chunk of generate requests: a closed loop, one client, one beam-4
    request at a time, each request distinct and unseen in training, decoded
    with the set-up checkpoint's seeded weights.

One process, one client, one BLAS thread.

Other tenants of a shared machine slow the same work by up to ~1.8x for
seconds at a time. train_examples_per_s therefore divides a round's examples
by the sum, over its batches, of each batch's fastest step across rounds.
The generate latencies are every decode as the client saw it.

Outputs are checked: tape gradients agree with finite differences at the
seeded weights, train losses are finite, trace scores equal beam scores, and
checkpoint round trips are bit-identical; a traced run also checks that its
second pass gives the same losses and answers as the first. A failed check
is a failed op and fails the run (exit code 1).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the phases
untraced and then again with spans around calls into each answergen module,
and prints the per-layer metrics plus the tracing overhead (traced minus
untraced, per end-to-end metric). The last line of stdout is the result
JSON; the line before it holds the workload's measured properties and the
environment. A fuller report, and for traced runs every span, is written
under bench/.work/.
"""
from __future__ import annotations

import os

# One BLAS thread (nproc is 2 on the reference machine): the run is a single
# client, and a second BLAS thread only adds contention noise on a shared box.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import answergen.autodiff as ad  # noqa: E402
import answergen.generate as decoding  # noqa: E402
from answergen import knowledge, text, training  # noqa: E402
from answergen.config import RunConfig, load_config  # noqa: E402
from answergen.errors import AnswergenError  # noqa: E402
from answergen.model import AnswerModel  # noqa: E402
from answergen.selectors import Source  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, write_inputs  # noqa: E402

WORK_DIR = ROOT / "bench" / ".work"
CYCLES = 4  # minimum train-round / generate-chunk cycles per measurement
MIN_ANSWERS = 100  # minimum untraced generate requests, so p90 has 10 beyond it
GRAD_EPS = 1e-3  # finite-difference step along each unit-norm direction
GRAD_TOL = 1e-4  # largest relative gap between tape and finite differences
GRAD_PASSAGE = 24  # passage tokens of the gradient check's example

# name -> unit; printed with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "train_loss_final": "nats",
    "generate_ms_p50": "ms",
    "generate_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}

# name -> (unit, the end-to-end metric it should move, on which workload).
# Times are medians per call unless the unit says otherwise.
PER_LAYER = {
    "autodiff.nodes_per_example": ("nodes/example", "train_examples_per_s on kb-dense"),
    "autodiff.prim_calls_per_answer": ("calls/answer", "generate_ms_p50 on kb-dense"),
    "autodiff.backward_ms": ("ms", "train_examples_per_s on full-dims"),
    "autodiff.bwd_fwd_ratio": ("ratio", "train_examples_per_s on full-dims"),
    "autodiff.lookup_nodes_per_example": ("nodes/example", "train_examples_per_s on full-dims"),
    "autodiff.lookup_grad_mb_per_example": ("MiB/example", "train_examples_per_s on full-dims"),
    "text.build_vocab_ms": ("ms", "setup_s on kb-dense"),
    "text.encode_example_ms": ("ms", "setup_s on kb-dense"),
    "knowledge.ingest_ms": ("ms", "setup_s on kb-dense"),
    "knowledge.ingest_lines": ("lines", "setup_s on kb-dense"),
    "knowledge.extract_ms": ("ms", "setup_s and generate_ms_p50 on kb-dense"),
    "knowledge.candidates_per_query": ("facts/query", "setup_s on kb-dense"),
    "knowledge.facts_per_query": ("facts/query", "setup_s on kb-dense"),
    "knowledge.useful_ratio": ("ratio", "setup_s on kb-dense"),
    "seq2seq.encode_ms": ("ms", "train_examples_per_s on kb-dense"),
    "seq2seq.encode_calls": ("calls/example", "train_examples_per_s on kb-dense"),
    "seq2seq.attend_ms": ("ms", "generate_ms_p50 on kb-dense"),
    "seq2seq.attend_calls": ("calls/answer", "generate_ms_p50 on kb-dense"),
    "model.step_ms": ("ms", "generate_ms_p50 on kb-dense"),
    "model.steps_per_answer": ("steps/answer", "generate_ms_p50 on kb-dense"),
    "model.steps_per_token": ("steps/token", "generate_ms_p50 on kb-dense"),
    "selectors.vocab_head_ms": ("ms", "generate_ms_p50 on full-dims"),
    "selectors.source_ms": ("ms", "train_examples_per_s on kb-dense"),
    "selectors.gumbel_ms": ("ms", "train_examples_per_s on kb-dense"),
    "selectors.embed_facts_ms": ("ms", "train_examples_per_s and generate_ms_p50 on kb-dense"),
    "selectors.facts_embedded": ("facts/call", "train_examples_per_s and generate_ms_p50 on kb-dense"),
    "selectors.fact_selector_ms": ("ms", "train_examples_per_s and generate_ms_p50 on kb-dense"),
    "training.forward_ms": ("ms", "train_examples_per_s on kb-dense"),
    "training.adam_ms": ("ms", "train_examples_per_s on full-dims"),
    "training.clip_ms": ("ms", "train_examples_per_s on full-dims"),
    "training.skipped_steps": ("count", "success_rate"),
    "training.checkpoint_save_ms": ("ms", "setup_s on full-dims"),
    "training.checkpoint_load_ms": ("ms", "setup_s on full-dims"),
    "training.checkpoint_mb": ("MiB", "setup_s on full-dims"),
    "generate.eos_share": ("ratio", "work per answer (all generate metrics)"),
    "generate.knowledge_choices_per_answer": ("choices/answer", "generate_ms_p50 on kb-dense"),
}
for _name, _unit in END_TO_END.items():
    PER_LAYER[f"trace.overhead.{_name}"] = (_unit, f"traced minus untraced {_name}")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


# ---------------------------------------------------------------------------
# The run: one workload, one seed, ops counted and checks recorded.
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    kb: knowledge.KnowledgeBase
    records: list
    vocab: text.Vocabulary
    items: list
    model: AnswerModel
    ckpt: training.CheckpointData


@dataclass
class Training:
    """A training run that carries on from round to round: the same batches
    every round, one optimizer, one Gumbel noise stream."""
    model: AnswerModel
    batches: list
    optimizer: training.Adam
    rng: np.random.Generator
    schedule: training.TemperatureSchedule
    step: int = 0


@dataclass
class PhaseResult:
    values: dict = field(default_factory=dict)      # end-to-end metric values
    properties: dict = field(default_factory=dict)  # measured workload properties


class Run:
    def __init__(self, workload: Workload, seed: int, trace: bool):
        self.workload = workload
        self.trace = trace
        overrides = dict(workload.overrides)
        overrides["training.seed"] = workload.model_seed
        self.cfg: RunConfig = load_config(profile=workload.profile, overrides=overrides)
        self.dir = WORK_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        self.check_failures.append(what)

    # --- set-up -----------------------------------------------------------

    def set_up(self, data_path: Path, kb_path: Path) -> Prepared:
        """What `answergen prepare` and `answergen train` do before the first
        step, plus the checkpoint round trip `answergen generate` starts from."""
        cfg = self.cfg
        kb = knowledge.ingest_triples(kb_path)
        records = text.load_jsonl_dataset(data_path)
        corpus = (text.tokenize(r.question) + text.tokenize(r.passage) for r in records)
        vocab = text.build_vocab(corpus, cfg.data.vocab_size)
        limits = text.EncodeLimits(passage=cfg.data.passage_limit, answer=cfg.data.answer_limit)
        items = []
        for rec in records:
            example = text.encode_example(rec.question, rec.passage, rec.answer, vocab, limits)
            facts = []
            if cfg.knowledge.enabled:
                scored = knowledge.extract_related_facts(
                    kb, example.question_tokens, example.passage_tokens, cfg.knowledge.max_facts)
                facts = knowledge.resolve_facts(kb, scored)
            items.append(training.TrainItem(example, facts))
        model = AnswerModel(vocab, max(1, len(kb.relation_names)), cfg.model,
                            np.random.default_rng(cfg.training.seed))
        ckpt_path = self.dir / "model.ckpt"
        training.save_checkpoint(model, step=0, config=cfg, path=ckpt_path)
        ckpt = training.load_checkpoint(ckpt_path)
        training.restore_model(model, ckpt)
        return Prepared(kb, records, vocab, items, model, ckpt)

    def timed_set_up(self, data_path: Path, kb_path: Path, tracer: Tracer,
                     times: list[float]) -> Prepared:
        """One set-up, its time appended to ``times``, its checkpoint checked.
        It starts from a collected heap, not from the garbage of what ran
        before it."""
        gc.collect()
        tracer.request = f"setup:{len(times)}"
        self.attempted += 1
        start = time.perf_counter()
        prep = self.set_up(data_path, kb_path)
        times.append(time.perf_counter() - start)
        tracer.request = None
        self.check_checkpoint(prep)
        return prep

    @staticmethod
    def setup_properties(prep: Prepared) -> dict:
        facts = [len(item.facts) for item in prep.items]
        return {
            "records": len(prep.records),
            "vocab_size": len(prep.vocab),
            "kb_facts": len(prep.kb.facts),
            "facts_per_query": float(np.mean(facts)),
            "question_tokens": float(np.mean([len(i.example.question_tokens) for i in prep.items])),
            "passage_tokens": float(np.mean([len(i.example.passage_tokens) for i in prep.items])),
            "answer_tokens": float(np.mean([len(i.example.answer_tokens) for i in prep.items])),
            "parameters": prep.model.parameter_count(),
        }

    def check_checkpoint(self, prep: Prepared) -> None:
        """The reloaded tensors are bit-identical to a model freshly built
        from the same seed."""
        fresh = AnswerModel(prep.vocab, prep.model.n_relations, self.cfg.model,
                            np.random.default_rng(self.cfg.training.seed))
        for name, tensor in fresh.parameters.items():
            loaded = prep.ckpt.tensors.get(name)
            if loaded is None or loaded.shape != tensor.data.shape \
                    or loaded.tobytes() != tensor.data.tobytes():
                self.fail(f"checkpoint round trip changed {name}")
                return

    def check_gradients(self, prep: Prepared) -> float:
        """Tape gradients of one example's loss at the seeded weights agree
        with central finite differences along a random unit direction per
        parameter group (the name before the first dot: embedding, enc_q,
        sel, ...). A wrong gradient anywhere in a group moves its directional
        derivative, so this catches what the train loss alone would not.
        The example is the first record with its passage cut to
        ``GRAD_PASSAGE`` tokens, which keeps the check cheap at full dims.
        Returns the largest relative gap."""
        tcfg, model, item = self.cfg.training, prep.model, prep.items[0]
        rec = prep.records[0]
        example = text.encode_example(
            rec.question, rec.passage, rec.answer, prep.vocab,
            text.EncodeLimits(passage=GRAD_PASSAGE, answer=self.cfg.data.answer_limit))

        def loss() -> ad.Tensor:
            value, _ = training.elbo_loss(
                model, example, item.facts, tcfg.tau0, np.random.default_rng(0),
                mc_samples=tcfg.mc_samples, lambda_cov=tcfg.lambda_cov,
                knowledge_enabled=self.cfg.knowledge.enabled)
            return value

        self.attempted += 1
        with ad.Tape() as tape:
            value = loss()
        grads = tape.backward(value, params=model.parameters.values())
        groups: dict[str, list] = {}
        for name, tensor in model.parameters.items():
            groups.setdefault(name.split(".")[0], []).append(tensor)
        rng = np.random.default_rng(1)
        worst = 0.0
        for group, tensors in groups.items():
            saved = [t.data.copy() for t in tensors]
            dirs = [rng.standard_normal(t.data.shape) for t in tensors]
            norm = math.sqrt(sum(float(np.sum(d * d)) for d in dirs))
            dirs = [d / norm for d in dirs]
            analytic = sum(float(np.sum(grads[t] * d)) for t, d in zip(tensors, dirs))
            sides = []
            for sign in (1.0, -1.0):
                for t, d, orig in zip(tensors, dirs, saved):
                    t.data[...] = orig + sign * GRAD_EPS * d
                sides.append(float(loss().data))
            for t, orig in zip(tensors, saved):
                t.data[...] = orig
            numeric = (sides[0] - sides[1]) / (2 * GRAD_EPS)
            # A random unit direction's derivative is |g| / sqrt(n) on
            # average; measuring the gap against at least that keeps a
            # direction nearly orthogonal to the gradient from magnifying
            # rounding error.
            typical = math.sqrt(sum(float(np.sum(grads[t] ** 2)) for t in tensors)
                                / sum(t.data.size for t in tensors))
            err = abs(analytic - numeric) / max(1e-12, abs(analytic) + abs(numeric), typical)
            worst = max(worst, err)
            if err > GRAD_TOL:
                self.fail(f"gradient of group {group}: tape {analytic:.9g}, "
                          f"finite differences {numeric:.9g}")
        return worst

    # --- train rounds and generate chunks, interleaved ------------------------

    def start_training(self, prep: Prepared) -> Training:
        """Training from the set-up checkpoint on a model of its own, so that
        generation keeps the seeded weights. The batches are the first
        ``train_steps`` batches of the dataset, in order."""
        cfg = self.cfg.training
        model = AnswerModel(prep.vocab, prep.model.n_relations, self.cfg.model,
                            np.random.default_rng(cfg.seed))
        training.restore_model(model, prep.ckpt)
        size = cfg.batch_size
        batches = [prep.items[i * size:(i + 1) * size] for i in range(self.workload.train_steps)]
        return Training(model, batches, training.Adam(model.parameters, lr=cfg.lr),
                        np.random.default_rng(cfg.seed),
                        training.TemperatureSchedule(cfg.tau0, cfg.tau_min, cfg.anneal_rate).validate())

    def train_round(self, state: Training, tracer: Tracer) -> tuple[list[float], list[float]]:
        """One ``train_step`` per batch; returns (losses, step seconds)."""
        cfg = self.cfg.training
        losses, times = [], []
        for batch in state.batches:
            tracer.request = f"train:{state.step}"
            tau = training.anneal_temperature(state.step, state.schedule)
            self.attempted += 1
            start = time.perf_counter()
            try:
                m = training.train_step(state.model, batch, state.optimizer, tau, state.rng,
                                        cfg, state.step,
                                        knowledge_enabled=self.cfg.knowledge.enabled)
            except AnswergenError as exc:
                self.fail(f"train step {state.step} raised {type(exc).__name__}: {exc}")
                m = None
            times.append(time.perf_counter() - start)
            if m is not None and m.skipped:
                tracer.counts["train.skipped"] += 1
                self.fail(f"train step {state.step} skipped for a non-finite gradient")
            loss = m.loss if m is not None else float("nan")
            if m is not None and not math.isfinite(loss):
                self.fail(f"train step {state.step} loss {loss}")
            losses.append(loss)
            state.step += 1
        return losses, times

    def decode(self, prep: Prepared, tracer: Tracer, rec, request: str) -> tuple[float | None, str]:
        """One generate request; returns its latency in seconds (None if it
        raised) and its answer's tokens and chosen sources as JSON."""
        cfg = self.cfg
        tracer.request = request
        self.attempted += 1
        c = tracer.counts
        steps, prims = c["model.step"], c["autodiff.prim"]
        start = time.perf_counter()
        try:
            result = decoding.generate(
                rec.question, rec.passage, prep.model, kb=prep.kb,
                beam_size=cfg.generation.beam_size, max_len=cfg.data.answer_limit,
                n_facts=cfg.knowledge.max_facts, knowledge_enabled=cfg.knowledge.enabled)
        except AnswergenError as exc:
            self.fail(f"generate {request} raised {type(exc).__name__}: {exc}")
            return None, ""
        elapsed = time.perf_counter() - start
        # Same tolerance as the trace-fidelity acceptance test.
        if abs(decoding.trace_score(result.trace) - result.score) > 1e-9:
            self.fail(f"generate {request}: trace score differs from beam score")
        c["generate.answers"] += 1
        c["generate.decoder_steps"] += c["model.step"] - steps
        c["autodiff.prim.generate"] += c["autodiff.prim"] - prims
        c["generate.tokens"] += len(result.tokens)
        c["generate.eos"] += int(bool(result.tokens) and result.tokens[-1] == text.EOS_TOKEN_SENTINEL)
        c["generate.knowledge_choices"] += sum(
            1 for s in result.trace if s.chosen == Source.KNOWLEDGE and not s.continuation)
        chosen = [[int(s.chosen), s.fact_id, s.continuation] for s in result.trace]
        return elapsed, json.dumps([result.tokens, chosen])

    def measure(self, prep: Prepared, requests: list, tracer: Tracer, budget: float,
                set_up_again) -> PhaseResult:
        """Alternate a train round with a chunk of generate requests, for at
        least ``budget`` seconds, ``CYCLES`` cycles and ``MIN_ANSWERS``
        untraced answers. After each of the first cycles, ``set_up_again()``
        times one more set-up, until there are ``setup_reps``.

        Interleaving spreads every metric's samples over the whole run: on a
        shared machine the speed drifts over seconds, and one phase after
        another would give each metric only one stretch of it.
        train_loss_final and the digests come from the first ``CYCLES``
        cycles, which every run completes, so they do not depend on the
        machine's speed.
        """
        # A traced run measures twice (untraced, then traced), each time with
        # half the chunk, so it costs about as much as an untraced run.
        chunk = -(-self.workload.chunk // (2 if self.trace else 1))
        min_cycles = max(CYCLES, -(-MIN_ANSWERS // self.workload.chunk))
        c = tracer.counts  # each measurement has a fresh tracer
        state = self.start_training(prep)
        rounds: list[tuple[list[float], list[float]]] = []
        latencies: list[float] = []
        answers: list[str] = []

        self.decode(prep, tracer, prep.records[0], "generate:warmup")
        deadline = time.perf_counter() + budget
        done = 0
        while len(rounds) < min_cycles or time.perf_counter() < deadline:
            rounds.append(self.train_round(state, tracer))
            for i in range(done, done + chunk):
                elapsed, answer = self.decode(prep, tracer, requests[i % len(requests)],
                                              f"generate:{i}")
                if elapsed is not None:
                    latencies.append(elapsed)
                if i < CYCLES * chunk:
                    answers.append(answer)
            done += chunk
            if len(rounds) < self.workload.setup_reps:
                set_up_again()
        tracer.request = None

        # Each batch's fastest step across rounds; see the module docstring.
        round_s = sum(min(times[j] for _, times in rounds) for j in range(len(state.batches)))
        round_examples = sum(len(batch) for batch in state.batches)
        losses = [loss for round_losses, _ in rounds[:CYCLES] for loss in round_losses]
        n = c["generate.answers"]
        self.digests["train_losses"] = hashlib.blake2b(
            json.dumps(losses).encode(), digest_size=8).hexdigest()
        self.digests["answers"] = hashlib.blake2b(
            "\n".join(answers).encode(), digest_size=8).hexdigest()
        p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else _median(latencies)
        return PhaseResult(
            values={"train_examples_per_s": _ratio(round_examples, round_s),
                    "train_loss_final": float(np.mean(rounds[CYCLES - 1][0])),
                    "generate_ms_p50": 1000 * _median(latencies),
                    "generate_ms_p90": 1000 * p90},
            properties={
                "cycles": len(rounds),
                "train_steps_per_round": len(state.batches),
                "train_steps": state.step,
                "train_loss_first": float(np.mean(rounds[0][0])),
                "batch_size": self.cfg.training.batch_size,
                "skipped_steps": c["train.skipped"],
                "generate_samples": len(latencies),
                "generate_distinct_requests": min(done, len(requests)),
                "answer_limit": self.cfg.data.answer_limit,
                "beam_size": self.cfg.generation.beam_size,
                "tokens_per_answer": _ratio(c["generate.tokens"], n),
                "decoder_steps_per_answer": _ratio(c["generate.decoder_steps"], n),
                "eos_share": _ratio(c["generate.eos"], n),
                "knowledge_choices_per_answer": _ratio(c["generate.knowledge_choices"], n),
            })

    def phases(self, paths: tuple[Path, Path, Path], tracer: Tracer, budget: float,
               check_gradients: bool) -> tuple[dict, dict]:
        """Set-up, the gradient check if asked, then the measured cycles with
        the remaining set-ups among them: (end-to-end values, properties)."""
        data_path, requests_path, kb_path = paths
        setup_times: list[float] = []
        prep = self.timed_set_up(data_path, kb_path, tracer, setup_times)
        props = self.setup_properties(prep)
        if check_gradients:
            props["gradient_check_rel_error"] = self.check_gradients(prep)
        requests = text.load_jsonl_dataset(requests_path)
        measured = self.measure(prep, requests, tracer, budget,
                                lambda: self.timed_set_up(data_path, kb_path, tracer, setup_times))
        values = {"setup_s": _median(setup_times), **measured.values}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["success_rate"] = _ratio(self.attempted - self.failed, self.attempted)
        return values, {**props, "setup_reps": len(setup_times), **measured.properties}


# ---------------------------------------------------------------------------
# Tracers.
# ---------------------------------------------------------------------------

def base_tracer() -> Tracer:
    """What an untraced run needs: the decoder step count. Nothing else is
    wrapped."""
    tracer = Tracer()
    tracer.count("answergen.model:AnswerModel.step", "model.step")
    return tracer


def full_tracer() -> Tracer:
    """The base probes plus spans around every public function a per-layer
    metric reads."""
    tracer = base_tracer()
    counts = tracer.counts

    def on_backward(args):
        nodes = args[0].nodes
        counts["tape.nodes"] += len(nodes)
        for node in nodes:
            if getattr(node, "op_kind", None) == "lookup":
                counts["tape.lookup_nodes"] += 1
                counts["tape.lookup_bytes"] += node.inputs[0].data.nbytes

    def on_extract(args, result):
        counts["knowledge.queries"] += 1
        counts["knowledge.returned"] += len(result)

    def on_embed_facts(args):
        counts["selectors.facts_embedded"] += len(args[0])

    def on_elbo(args):
        counts["train.examples"] += 1

    for fn in ad.PRIMITIVES.values():
        tracer.count(f"answergen.autodiff:{fn.__name__}", "autodiff.prim")
    tracer.span("answergen.autodiff:Tape.backward", "autodiff.backward", before=on_backward)
    tracer.span("answergen.text:build_vocab", "text.build_vocab")
    tracer.span("answergen.text:encode_example", "text.encode_example")
    tracer.span("answergen.knowledge:ingest_triples", "knowledge.ingest")
    tracer.span("answergen.knowledge:extract_related_facts", "knowledge.extract", after=on_extract)
    tracer.count("answergen.knowledge:score_fact", "knowledge.scored")
    tracer.span("answergen.seq2seq:encode", "seq2seq.encode")
    tracer.span("answergen.seq2seq:lstm_step", "seq2seq.lstm_step")
    tracer.span("answergen.seq2seq:attend", "seq2seq.attend")
    tracer.span("answergen.model:AnswerModel.step", "model.step")
    tracer.span("answergen.selectors:vocab_distribution", "selectors.vocab_head")
    tracer.span("answergen.selectors:source_distribution", "selectors.source")
    tracer.span("answergen.selectors:gumbel_softmax_sample", "selectors.gumbel")
    tracer.span("answergen.selectors:embed_facts", "selectors.embed_facts", before=on_embed_facts)
    tracer.span("answergen.selectors:fact_distribution", "selectors.fact_selector")
    tracer.span("answergen.training:elbo_loss", "training.forward", before=on_elbo)
    tracer.span("answergen.training:Adam.step", "training.adam")
    tracer.span("answergen.training:clip_global_norm", "training.clip")
    tracer.span("answergen.training:save_checkpoint", "training.checkpoint_save")
    tracer.span("answergen.training:load_checkpoint", "training.checkpoint_load")
    tracer.span("answergen.generate:generate", "generate.generate")
    tracer.span("answergen.generate:_beam_search", "generate.beam_search")
    return tracer


def layer_metrics(tracer: Tracer, props: dict, kb_path: Path, ckpt_path: Path) -> dict:
    c = tracer.counts
    ms = lambda name, phase="": 1000 * _median(tracer.durations(name, phase))  # noqa: E731
    examples = c["train.examples"]
    answers = c["generate.answers"]
    backward = sum(tracer.durations("autodiff.backward", "train:"))
    forward = sum(tracer.durations("training.forward", "train:"))
    with open(kb_path, encoding="utf-8") as fh:
        kb_lines = sum(1 for _ in fh)
    return {
        "autodiff.nodes_per_example": _ratio(c["tape.nodes"], examples),
        "autodiff.prim_calls_per_answer": _ratio(c["autodiff.prim.generate"], answers),
        "autodiff.backward_ms": ms("autodiff.backward", "train:"),
        "autodiff.bwd_fwd_ratio": _ratio(backward, forward),
        "autodiff.lookup_nodes_per_example": _ratio(c["tape.lookup_nodes"], examples),
        "autodiff.lookup_grad_mb_per_example": _ratio(c["tape.lookup_bytes"], examples) / 2**20,
        "text.build_vocab_ms": ms("text.build_vocab"),
        "text.encode_example_ms": ms("text.encode_example"),
        "knowledge.ingest_ms": ms("knowledge.ingest"),
        "knowledge.ingest_lines": kb_lines,
        "knowledge.extract_ms": ms("knowledge.extract"),
        "knowledge.candidates_per_query": _ratio(c["knowledge.scored"], c["knowledge.queries"]),
        "knowledge.facts_per_query": _ratio(c["knowledge.returned"], c["knowledge.queries"]),
        "knowledge.useful_ratio": _ratio(c["knowledge.returned"], c["knowledge.scored"]),
        "seq2seq.encode_ms": ms("seq2seq.encode", "train:"),
        "seq2seq.encode_calls": _ratio(len(tracer.durations("seq2seq.encode", "train:")), examples),
        "seq2seq.attend_ms": ms("seq2seq.attend", "generate:"),
        "seq2seq.attend_calls": _ratio(len(tracer.durations("seq2seq.attend", "generate:")), answers),
        "model.step_ms": ms("model.step", "generate:"),
        "model.steps_per_answer": props["decoder_steps_per_answer"],
        "model.steps_per_token": _ratio(props["decoder_steps_per_answer"], props["tokens_per_answer"]),
        "selectors.vocab_head_ms": ms("selectors.vocab_head", "generate:"),
        "selectors.source_ms": ms("selectors.source", "train:"),
        "selectors.gumbel_ms": ms("selectors.gumbel", "train:"),
        "selectors.embed_facts_ms": ms("selectors.embed_facts"),
        "selectors.facts_embedded": _ratio(c["selectors.facts_embedded"],
                                           len(tracer.durations("selectors.embed_facts"))),
        "selectors.fact_selector_ms": ms("selectors.fact_selector"),
        "training.forward_ms": ms("training.forward", "train:"),
        "training.adam_ms": ms("training.adam", "train:"),
        "training.clip_ms": ms("training.clip", "train:"),
        "training.skipped_steps": props["skipped_steps"],
        "training.checkpoint_save_ms": ms("training.checkpoint_save"),
        "training.checkpoint_load_ms": ms("training.checkpoint_load"),
        "training.checkpoint_mb": ckpt_path.stat().st_size / 2**20,
        "generate.eos_share": props["eos_share"],
        "generate.knowledge_choices_per_answer": props["knowledge_choices_per_answer"],
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "processes": 1,
        "clients": 1,
    }


def execute(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result, report)."""
    run = Run(workload, seed, trace)
    paths = write_inputs(workload, seed, run.dir)
    budget = seconds / 2 if trace else seconds

    tracer = base_tracer()
    try:
        values, props = run.phases(paths, tracer, budget, check_gradients=True)
    finally:
        tracer.uninstall()
    report = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "properties": props, "environment": environment(),
              "untraced": values}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    if trace:
        untraced_digests = dict(run.digests)
        traced = full_tracer()
        try:
            traced_values, traced_props = run.phases(paths, traced, budget, check_gradients=False)
        finally:
            traced.uninstall()
        if run.digests != untraced_digests:
            run.fail("tracing changed the train losses or the answers")
        layers = layer_metrics(traced, traced_props, paths[2], run.dir / "model.ckpt")
        for name, unit in END_TO_END.items():
            layers[f"trace.overhead.{name}"] = traced_values[name] - values[name]
        metrics = {name: (layers[name], unit) for name, (unit, _) in PER_LAYER.items()}
        report["traced"] = traced_values
        report["missing_targets"] = traced.missing
        report["self_time"] = traced.self_times()
        traced.write(run.dir / "spans.jsonl")

    (run.dir / "model.ckpt").unlink(missing_ok=True)
    report["digests"] = run.digests
    report["check_failures"] = run.check_failures
    result = {
        "correct": not run.check_failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report["result"] = result
    with open(run.dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for failure in report["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({k: report[k] for k in ("workload", "seed", "trace", "properties",
                                             "environment", "digests")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
