"""Command-line front door: data prep, fact extraction, training, generation,
evaluation, and the synthetic benchmark.

Exit codes: 0 success, and on failure the ``exit_code`` of the error's class
in ``answergen.errors``. Structured JSON log lines go to stderr; artifacts go
to the paths given by flags.
"""
from __future__ import annotations

import contextlib
import json
import os
import sys
import time

import click
import numpy as np

from .config import PROFILES, RunConfig, load_config
from .errors import AnswergenError, ConfigError, DataError, MalformedLineError
from .files import replace_file
from .generate import generate as run_generate
from .generate import render_trace, write_predictions
from .knowledge import extract_related_facts, ingest_triples
from .metrics import evaluate_corpus
from .model import AnswerModel
from .synth import TASKS, synth_generate
from .text import (
    Vocabulary,
    build_vocab,
    load_jsonl_dataset,
    load_pretrained_embeddings,
    read_json_objects,
    record_text,
    tokenize,
)
from .training import (
    encode_dataset,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train,
)


INPUT_FILE = click.Path(exists=True, dir_okay=False)


class OutputPath(click.Path):
    """A path a command writes: its parent must be a directory, so a bad
    path is a usage error (exit 2) before any work starts."""

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            self.fail(f"{os.fspath(path)!r}: its parent is not a directory", param, ctx)
        return path


OUTPUT_FILE = OutputPath(dir_okay=False)


def log_event(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), file=sys.stderr)


def config_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None,
                      help="Config file ([section] / key = value).")(fn)
    fn = click.option("--profile", type=click.Choice(list(PROFILES)),
                      default=next(iter(PROFILES)), show_default=True)(fn)
    fn = click.option("--set", "overrides", multiple=True, metavar="SECTION.KEY=VALUE",
                      help="Override a config value; repeatable.")(fn)
    return fn


def build_config(config_path, profile, overrides) -> RunConfig:
    parsed = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        parsed[key.strip()] = value
    return load_config(config_path, profile=profile, overrides=parsed)


class JsonErrorGroup(click.Group):
    """The one error boundary. Runs click non-standalone, so that its usage
    errors and the package's errors reach stderr as one JSON ``error`` record
    each, with its class's kind and exit code; a bare command still prints the help."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, **{**kwargs, "standalone_mode": False})
        except getattr(click.exceptions, "NoArgsIsHelpError", ()) as exc:
            exc.show()
            sys.exit(exc.exit_code)
        except click.ClickException as exc:  # a usage error is a configuration problem
            log_event("error", kind=ConfigError.kind, message=exc.format_message())
            sys.exit(ConfigError.exit_code)
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)
        except AnswergenError as exc:
            log_event("error", kind=exc.kind, message=str(exc))
            sys.exit(exc.exit_code)


@click.group(cls=JsonErrorGroup)
def main():
    """Knowledge-enriched answer generation toolkit."""


@main.command()
@click.option("--data", "data_path", required=True, type=INPUT_FILE)
@click.option("--out", "out_path", required=True, type=OUTPUT_FILE)
@config_options
def prepare(data_path, out_path, config_path, profile, overrides):
    """Build the vocabulary from a JSONL dataset.

    Counts question and passage tokens only: answers stay reachable through
    the copy and knowledge sources, and held-out words in answers must not
    leak into the vocabulary.
    """
    cfg = build_config(config_path, profile, overrides)
    records = load_jsonl_dataset(data_path)
    corpus = (tokenize(r.question) + tokenize(r.passage) for r in records)
    vocab = build_vocab(corpus, cfg.data.vocab_size)
    vocab.save(out_path)
    log_event("prepare", records=len(records), vocab_size=len(vocab), out=str(out_path))
    click.echo(f"vocabulary of {len(vocab)} tokens -> {out_path}")


@main.command("extract-facts")
@click.option("--kb", "kb_path", required=True, type=INPUT_FILE)
@click.option("--question", required=True)
@click.option("--passage", required=True)
@click.option("--n-facts", type=click.IntRange(min=1), default=1000, show_default=True)
def extract_facts(kb_path, question, passage, n_facts):
    """Rank knowledge triples against a (question, passage) pair."""
    kb = ingest_triples(kb_path)
    scored = extract_related_facts(kb, tokenize(question), tokenize(passage), n_facts)
    for sf in scored:
        fact = kb.facts[sf.fact_id]
        click.echo(json.dumps({
            "fact_id": fact.fact_id,
            "subject": " ".join(fact.subject),
            "relation": kb.relation_name(fact),
            "object": " ".join(fact.object),
            "score": sf.score,
        }))
    log_event("extract-facts", kb_facts=len(kb.facts), kb_skipped_lines=kb.skipped_lines,
              returned=len(scored))


@main.command("train")
@click.option("--data", "data_path", required=True, type=INPUT_FILE)
@click.option("--vocab", "vocab_path", required=True, type=INPUT_FILE)
@click.option("--out", "out_path", required=True, type=OUTPUT_FILE)
@click.option("--kb", "kb_path", default=None, type=INPUT_FILE)
@click.option("--embeddings", "emb_path", default=None, type=INPUT_FILE)
@click.option("--metrics", "metrics_path", default=None, type=OUTPUT_FILE)
@click.option("--seed", type=int, default=None, help="Shorthand for training.seed.")
@config_options
def train_cmd(data_path, vocab_path, out_path, kb_path, emb_path, metrics_path,
              seed, config_path, profile, overrides):
    """Train a model and write a checkpoint."""
    if seed is not None:
        overrides += (f"training.seed={seed}",)
    cfg = build_config(config_path, profile, overrides)
    vocab = Vocabulary.load(vocab_path)
    kb = ingest_triples(kb_path) if kb_path else None
    items = encode_dataset(load_jsonl_dataset(data_path), vocab, cfg, kb, data_path)
    n_relations = max(1, len(kb.relation_names)) if kb else 1

    model = AnswerModel(vocab, n_relations, cfg.model,
                        np.random.default_rng(cfg.training.seed))
    if emb_path:
        vectors = load_pretrained_embeddings(emb_path, vocab, d_emb=cfg.model.emb_dim,
                                             seed=cfg.training.seed)
        if vectors.shape[1] != cfg.model.emb_dim:
            raise ConfigError(f"embedding file is {vectors.shape[1]}-dimensional, "
                              f"model.emb_dim is {cfg.model.emb_dim}")
        model.embedding.data[:] = vectors

    log_event("train-start", examples=len(items), params=model.parameter_count(),
              steps=cfg.training.max_steps, knowledge=cfg.knowledge.enabled and kb is not None,
              kb_skipped_lines=kb.skipped_lines if kb else None)
    started = time.time()
    skipped = 0

    def write_metrics(metrics):
        nonlocal skipped
        skipped += int(metrics.skipped)
        sink.write(json.dumps({
            "step": metrics.step, "loss": metrics.loss,
            "loss_per_token": metrics.loss_per_token,
            "grad_norm": None if metrics.skipped else metrics.grad_norm,
            "source_freqs": metrics.source_freqs,
            "tau": metrics.tau, "skipped": skipped,
        }) + "\n")

    with open(metrics_path, "w", encoding="utf-8") if metrics_path \
            else contextlib.nullcontext() as sink:
        history = train(model, items, cfg.training,
                        on_step=write_metrics if metrics_path else None)
    save_checkpoint(model, step=cfg.training.max_steps, config=cfg, path=out_path,
                    relation_names=kb.relation_names if kb else ())
    log_event("train-done", seconds=round(time.time() - started, 2),
              final_loss=history[-1].loss if history else None, out=str(out_path))
    click.echo(f"trained {cfg.training.max_steps} steps -> {out_path}")


@main.command("generate")
@click.option("--checkpoint", "ckpt_path", required=True, type=INPUT_FILE)
@click.option("--vocab", "vocab_path", required=True, type=INPUT_FILE)
@click.option("--data", "data_path", required=True, type=INPUT_FILE)
@click.option("--out", "out_path", required=True, type=OUTPUT_FILE)
@click.option("--kb", "kb_path", default=None, type=INPUT_FILE)
@click.option("--beam", type=click.IntRange(min=1), default=None, help="Override beam size.")
@click.option("--trace", "show_trace", is_flag=True,
              help="Print the per-token source table for each answer.")
def generate_cmd(ckpt_path, vocab_path, data_path, out_path, kb_path, beam, show_trace):
    """Generate answers for a JSONL dataset with a trained checkpoint."""
    ckpt = load_checkpoint(ckpt_path)
    cfg = RunConfig.from_dict(ckpt.config)
    vocab = Vocabulary.load(vocab_path)
    kb = ingest_triples(kb_path) if kb_path else None
    # relation ids follow the KB's line order, so another KB, or the same
    # triples reordered, would silently remap the trained relation rows
    if kb is not None and kb.relation_names != ckpt.relation_names:
        raise DataError(f"knowledge base relations {kb.relation_names} differ from the "
                        f"checkpoint's {ckpt.relation_names}")
    # a missing table builds a model of one relation; restore_model names it
    n_relations = len(ckpt.tensors.get("sel.relations", ()))
    model = AnswerModel(vocab, n_relations, cfg.model, np.random.default_rng(0))
    restore_model(model, ckpt)

    beam_size = beam if beam is not None else cfg.generation.beam_size
    results = []
    for rec in load_jsonl_dataset(data_path):
        try:
            result = run_generate(rec.question, rec.passage, model, kb=kb,
                                  beam_size=beam_size, max_len=cfg.data.answer_limit,
                                  n_facts=cfg.knowledge.max_facts,
                                  knowledge_enabled=cfg.knowledge.enabled,
                                  passage_limit=cfg.data.passage_limit)
        except DataError as exc:
            raise MalformedLineError(rec.line, str(exc), data_path) from None
        results.append((rec.question, result))
        if show_trace:
            click.echo(f"Q: {rec.question}")
            click.echo(f"A: {result.answer}")
            click.echo(render_trace(result.trace))
            click.echo("")
    write_predictions(out_path, results)
    log_event("generate", n=len(results), beam=beam_size, out=str(out_path),
              kb_skipped_lines=kb.skipped_lines if kb else None)
    click.echo(f"{len(results)} answers -> {out_path}")


@main.command("evaluate")
@click.option("--predictions", "pred_path", required=True, type=INPUT_FILE)
@click.option("--references", "ref_path", required=True, type=INPUT_FILE)
@click.option("--out", "out_path", default=None, type=OUTPUT_FILE)
def evaluate_cmd(pred_path, ref_path, out_path):
    """Score predictions (JSONL with an "answer" field) against references."""
    def read_answers(path):
        return [tokenize(record_text(obj, "answer", lineno, path))
                for lineno, obj in read_json_objects(path)]

    report = evaluate_corpus(read_answers(pred_path), read_answers(ref_path))
    if out_path:
        replace_file(out_path, [json.dumps(report.to_dict(), indent=2).encode("utf-8")])
    log_event("evaluate", rouge_l=report.rouge_l, bleu_1=report.bleu_1)
    click.echo(json.dumps({"rouge_l": report.rouge_l, "bleu_1": report.bleu_1}))


@main.command("synth")
@click.option("--task", required=True, type=click.Choice(list(TASKS)))
@click.option("--size", required=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_dir", required=True, type=OutputPath(file_okay=False))
def synth_cmd(task, size, seed, out_dir):
    """Write a synthetic dataset (<task>.jsonl) and its mini KB (kb.tsv)."""
    data_path, kb_path = synth_generate(task, size, seed, out_dir)
    log_event("synth", task=task, size=size, seed=seed,
              data=str(data_path), kb=str(kb_path))
    click.echo(f"{data_path}\n{kb_path}")


if __name__ == "__main__":
    main()
