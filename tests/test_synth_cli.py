import json
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import answergen
from answergen import errors
from answergen.cli import JsonErrorGroup, main
from answergen.config import ModelConfig, RunConfig
from answergen.model import AnswerModel
from answergen.synth import TASKS, build_synth
from answergen.text import tokenize
from answergen.training import save_checkpoint

from conftest import make_vocab


# --- synthetic generator construction guarantees ---

def test_synth_single_example():
    data = build_synth("copy-q", size=1, seed=0)
    assert len(data.records) == 1


def test_copy_q_answers_are_question_spans():
    data = build_synth("copy-q", size=20, seed=1)
    for rec in data.records:
        q = " ".join(tokenize(rec["question"]))
        assert " ".join(tokenize(rec["answer"])) in q


def test_copy_p_answers_are_passage_spans():
    data = build_synth("copy-p", size=20, seed=2)
    for rec in data.records:
        p = " ".join(tokenize(rec["passage"]))
        assert " ".join(tokenize(rec["answer"])) in p


def test_kb_lookup_target_absent_from_all_text():
    data = build_synth("kb-lookup", size=30, seed=3)
    all_text = set()
    for rec in data.records:
        all_text.update(tokenize(rec["question"]))
        all_text.update(tokenize(rec["passage"]))
    kb_objects = {obj for _, _, obj in data.kb_lines}
    for rec, target in zip(data.records, data.targets):
        assert target is not None
        assert target in tokenize(rec["answer"])
        assert target not in all_text          # unreachable by copy or vocab
        assert target in kb_objects            # reachable through the KB


def test_mixed_answers_interleave_sources():
    data = build_synth("mixed", size=10, seed=4)
    for rec, target in zip(data.records, data.targets):
        q_tokens = set(tokenize(rec["question"]))
        p_tokens = set(tokenize(rec["passage"]))
        a_tokens = tokenize(rec["answer"])
        assert target in a_tokens                        # knowledge object
        assert any(t in q_tokens for t in a_tokens)      # question word
        assert any(t in p_tokens and t not in q_tokens for t in a_tokens)  # passage word


def test_synth_rejects_unknown_task():
    with pytest.raises(ValueError):
        build_synth("copy-z", 5, 0)


def test_synth_deterministic():
    a = build_synth("kb-lookup", 5, seed=7)
    b = build_synth("kb-lookup", 5, seed=7)
    assert a.records == b.records
    assert a.kb_lines == b.kb_lines


# --- CLI surface ---

@pytest.fixture
def runner():
    return CliRunner()


def test_cli_synth_and_prepare(runner, tmp_path):
    out = tmp_path / "synthq"
    result = runner.invoke(main, ["synth", "--task", "copy-q", "--size", "5",
                                  "--seed", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "copy-q.jsonl").exists()
    assert (out / "kb.tsv").exists()

    vocab_path = tmp_path / "vocab.json"
    result = runner.invoke(main, ["prepare", "--data", str(out / "copy-q.jsonl"),
                                  "--out", str(vocab_path), "--profile", "desk"])
    assert result.exit_code == 0, result.output
    assert vocab_path.exists()


def test_cli_extract_facts_bridge_example(runner, tmp_path):
    kb_path = tmp_path / "kb.tsv"
    kb_path.write_text("bridge\tUsedFor\tcross water\n")
    result = runner.invoke(main, ["extract-facts", "--kb", str(kb_path),
                                  "--question", "what is a bridge ?",
                                  "--passage", "you cross water on it ."])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output.strip().splitlines()[0])
    assert record["score"] == 5  # subject in q (+1), subject in q and object in p (+4)
    assert record["subject"] == "bridge"
    assert record["relation"] == "UsedFor"
    assert record["object"] == "cross water"


def test_cli_evaluate_identity(runner, tmp_path):
    pred = tmp_path / "pred.jsonl"
    refs = tmp_path / "refs.jsonl"
    lines = [json.dumps({"answer": "the cat sat ."}), json.dumps({"answer": "a dog ran ."})]
    pred.write_text("\n".join(lines) + "\n")
    refs.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["evaluate", "--predictions", str(pred),
                                  "--references", str(refs), "--out", str(out)])
    assert result.exit_code == 0, result.output
    headline = json.loads(result.output.strip().splitlines()[-1])
    assert headline["rouge_l"] == pytest.approx(1.0)
    assert headline["bleu_1"] == pytest.approx(1.0)
    report = json.loads(out.read_text())
    assert report["rouge_l"] == pytest.approx(1.0)


def test_cli_config_error_exit_code(runner, tmp_path):
    result = runner.invoke(main, ["prepare", "--data", "missing.jsonl",
                                  "--out", str(tmp_path / "v.json")])
    assert result.exit_code == 2  # click path validation

    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "q ?", "passage": "p ."}) + "\n")
    result = runner.invoke(main, ["prepare", "--data", str(data),
                                  "--out", str(tmp_path / "v.json"),
                                  "--set", "data.vocab_size=notanumber"])
    assert result.exit_code == 2


@pytest.mark.parametrize("override", ["training.clip_norm=-1", "training.clip_norm=0",
                                      "training.seed=-1", "training.lr=nan",
                                      "training.lambda_cov=-0.5", "training.tau0=inf",
                                      "training.max_steps=-1", "training.lr=true",
                                      "training.lambda_cov=false", "training.batch_size=inf",
                                      "training.max_steps=1e400"])
def test_cli_train_refuses_a_bad_training_value(runner, tmp_path, override):
    """A negative or zero clip norm would flip or freeze every clipped
    update, a negative seed would reach numpy, a NaN learning rate the first
    log, and a negative step count the checkpoint. A true or false is not a
    number, and an int key takes no inf or 1e400. Each is a configuration
    error that names its key, in one JSON record."""
    data, vocab = tmp_path / "d.jsonl", tmp_path / "vocab.json"
    data.write_text(json.dumps({"question": "q ?", "passage": "p .", "answer": "p"}) + "\n")
    make_vocab().save(vocab)
    result = runner.invoke(main, ["train", "--data", str(data), "--vocab", str(vocab),
                                  "--out", str(tmp_path / "m.ckpt"), "--profile", "desk",
                                  "--set", override])
    assert result.exit_code == 2, result.output
    assert len(result.stderr.splitlines()) == 1
    error = events(result)["error"]
    assert error["kind"] == "config" and override.split("=")[0] in error["message"]
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_train_refuses_a_zero_tau_min_by_name(runner, tmp_path):
    """The temperature schedule's own rule refuses a zero floor, as a
    configuration error that names tau_min."""
    data, vocab = tmp_path / "d.jsonl", tmp_path / "vocab.json"
    data.write_text(json.dumps({"question": "q ?", "passage": "p .", "answer": "p"}) + "\n")
    make_vocab().save(vocab)
    result = runner.invoke(main, ["train", "--data", str(data), "--vocab", str(vocab),
                                  "--out", str(tmp_path / "m.ckpt"), "--profile", "desk",
                                  "--set", "training.tau_min=0"])
    assert result.exit_code == 2, result.output
    error = events(result)["error"]
    assert error["kind"] == "config" and "tau_min" in error["message"]


@pytest.mark.parametrize("command", ["generate", "extract-facts", "synth"])
def test_cli_count_flags_below_one_exit_2(runner, tmp_path, command):
    write_vocab_and_checkpoint(tmp_path)
    kb, data = tmp_path / "kb.tsv", tmp_path / "d.jsonl"
    kb.write_text("bridge\tUsedFor\tcross water\n")
    data.write_text(json.dumps({"question": "what is the bridge ?",
                                "passage": "the bridge is safe ."}) + "\n")
    flag, args = {
        "generate": ("--beam", ["--checkpoint", str(tmp_path / "m.ckpt"),
                                "--vocab", str(tmp_path / "vocab.json"), "--data", str(data),
                                "--out", str(tmp_path / "pred.jsonl")]),
        "extract-facts": ("--n-facts", ["--kb", str(kb), "--question", "what is a bridge ?",
                                        "--passage", "you cross water on it ."]),
        "synth": ("--size", ["--task", "copy-q", "--out", str(tmp_path / "synth")]),
    }[command]
    result = runner.invoke(main, [command, flag, "0", *args])
    assert result.exit_code == 2, result.output
    assert flag in result.stderr
    assert not (tmp_path / "pred.jsonl").exists() and not (tmp_path / "synth").exists()


def test_cli_usage_error_is_one_json_record(runner, tmp_path):
    """click's own usage errors reach stderr as a JSON error record, and
    nothing else does; a bare command and --help still print the help."""
    write_vocab_and_checkpoint(tmp_path)
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?", "passage": "safe ."}) + "\n")
    result = runner.invoke(main, ["generate", "--beam", "0",
                                  "--checkpoint", str(tmp_path / "m.ckpt"),
                                  "--vocab", str(tmp_path / "vocab.json"),
                                  "--data", str(data), "--out", str(tmp_path / "pred.jsonl")])
    assert result.exit_code == 2, result.output
    (record,) = map(json.loads, result.stderr.splitlines())
    assert record["event"] == "error" and record["kind"] == "config"
    assert "--beam" in record["message"]
    assert "Commands:" in runner.invoke(main, []).output
    helped = runner.invoke(main, ["--help"])
    assert helped.exit_code == 0 and "Commands:" in helped.stdout


# The exit-code contract: each umbrella's kind and code; a class under none
# of the three is an internal error.
UMBRELLAS = [(errors.ConfigError, "config", 2), (errors.DataError, "data", 3),
             (errors.NumericError, "numeric", 4), (errors.AnswergenError, "internal", 1)]
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.AnswergenError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_package_error_exits_with_its_umbrellas_kind_and_code(runner, cls):
    kind, code = next((kind, code) for umbrella, kind, code in UMBRELLAS
                      if issubclass(cls, umbrella))
    assert (cls.kind, cls.exit_code) == (kind, code)

    @click.group(cls=JsonErrorGroup)
    def group():
        pass

    @group.command()
    def fail():
        raise cls(1, "boom") if cls is errors.MalformedLineError else cls("boom")

    result = runner.invoke(group, ["fail"])
    assert result.exit_code == code, result.output
    (record,) = map(json.loads, result.stderr.splitlines())
    assert record["event"] == "error" and record["kind"] == kind
    assert record["message"].endswith("boom")


@pytest.mark.parametrize("size", [1, 3])
def test_cli_vocab_size_below_the_special_tokens_exits_2(runner, tmp_path, size):
    """A vocabulary too small for <pad>, <unk>, <bos> and <eos> is a
    configuration error naming the key, not a data error from build_vocab."""
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "q ?", "passage": "p ."}) + "\n")
    result = runner.invoke(main, ["prepare", "--data", str(data), "--out", str(tmp_path / "v"),
                                  "--set", f"data.vocab_size={size}"])
    assert result.exit_code == 2, result.output
    error = events(result)["error"]
    assert error["kind"] == "config" and "data.vocab_size" in error["message"]
    assert not (tmp_path / "v").exists()


# (bad field, record): each field a JSON string, the passage also a list of strings
BAD_FIELDS = [
    ("question", {"question": None, "passage": "the bridge is safe ."}),
    ("answer", {"question": "what is the bridge ?", "passage": "it is .", "answer": 5}),
    ("question", {"question": ["what", "?"], "passage": "the bridge is safe ."}),
    ("passage", {"question": "what is the bridge ?", "passage": ["the bridge is", 5]}),
]


@pytest.mark.parametrize("command", ["prepare", "train", "generate"])
@pytest.mark.parametrize("field, record", BAD_FIELDS,
                         ids=["null-question", "numeric-answer", "list-question",
                              "passage-list-with-a-number"])
def test_cli_dataset_field_that_is_not_text_exits_3(runner, tmp_path, command, field, record):
    """A null, a number or a list where a string belongs is a data error
    naming the file, the line and the field: not the word "none", not the
    text of a Python list, and not a TypeError."""
    write_vocab_and_checkpoint(tmp_path)
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?", "passage": "it is ."})
                    + "\n" + json.dumps(record) + "\n")
    vocab, out = ["--vocab", str(tmp_path / "vocab.json")], ["--out", str(tmp_path / "out")]
    args = {"prepare": [], "train": [*vocab, "--profile", "desk"],
            "generate": ["--checkpoint", str(tmp_path / "m.ckpt"), *vocab]}[command]
    result = runner.invoke(main, [command, "--data", str(data), *out, *args])
    assert result.exit_code == 3, result.output
    error = events(result)["error"]
    assert error["kind"] == "data"
    assert error["message"].startswith(f"{data} line 2: {field} must be "), error["message"]
    assert not (tmp_path / "out").exists()


def test_cli_evaluate_null_reference_answer_exits_3(runner, tmp_path):
    pred, refs = tmp_path / "pred.jsonl", tmp_path / "refs.jsonl"
    pred.write_text(json.dumps({"answer": "a dog ran ."}) + "\n")
    refs.write_text(json.dumps({"answer": None}) + "\n")
    result = runner.invoke(main, ["evaluate", "--predictions", str(pred),
                                  "--references", str(refs)])
    assert result.exit_code == 3, result.output
    assert events(result)["error"]["message"] == \
        f"{refs} line 1: answer must be a string, got null"


def test_cli_train_metrics_file_holds_one_run(runner, tmp_path):
    """A second run into the same --metrics path replaces the first's lines."""
    data, vocab = tmp_path / "d.jsonl", tmp_path / "vocab.json"
    data.write_text(json.dumps({"question": "what is the bridge ?",
                                "passage": "the bridge is safe .", "answer": "safe"}) + "\n")
    make_vocab().save(vocab)
    metrics = tmp_path / "metrics.jsonl"
    for steps in (3, 2):
        result = runner.invoke(main, ["train", "--data", str(data), "--vocab", str(vocab),
                                      "--out", str(tmp_path / "m.ckpt"), "--profile", "desk",
                                      "--metrics", str(metrics),
                                      "--set", "model.emb_dim=4", "--set", "model.hidden_dim=3",
                                      "--set", "model.fact_dim=5",
                                      "--set", f"training.max_steps={steps}"])
        assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert [rec["step"] for rec in lines] == [0, 1]


def test_cli_data_error_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    result = runner.invoke(main, ["prepare", "--data", str(bad),
                                  "--out", str(tmp_path / "v.json")])
    assert result.exit_code == 3


# (command, input-file option, exit code and error text when the file's
# bytes are not UTF-8); the checkpoint is binary, so its bytes fail its magic.
INPUT_FILE_OPTIONS = [
    ("prepare", "--data", 3, "is not UTF-8 text"),
    ("prepare", "--config", 2, "cannot read config file"),
    ("extract-facts", "--kb", 3, "is not UTF-8 text"),
    ("train", "--data", 3, "is not UTF-8 text"),
    ("train", "--vocab", 3, "is not a vocabulary file"),
    ("train", "--kb", 3, "is not UTF-8 text"),
    ("train", "--embeddings", 3, "is not UTF-8 text"),
    ("train", "--config", 2, "cannot read config file"),
    ("generate", "--checkpoint", 3, "not a checkpoint file"),
    ("generate", "--vocab", 3, "is not a vocabulary file"),
    ("generate", "--data", 3, "is not UTF-8 text"),
    ("generate", "--kb", 3, "is not UTF-8 text"),
    ("evaluate", "--predictions", 3, "is not UTF-8 text"),
    ("evaluate", "--references", 3, "is not UTF-8 text"),
]


@pytest.mark.parametrize("command, option, code, message", INPUT_FILE_OPTIONS,
                         ids=[command + option for command, option, *_ in INPUT_FILE_OPTIONS])
def test_cli_input_file_that_is_a_directory_or_not_utf8_keeps_the_exit_codes(
        runner, tmp_path, command, option, code, message):
    """Every input-file option: a directory is a usage error (exit 2), and
    undecodable bytes are a data error (exit 3), or a configuration error for
    a config file, each one JSON record rather than a traceback."""
    write_vocab_and_checkpoint(tmp_path)
    data, answers = tmp_path / "d.jsonl", tmp_path / "answers.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?",
                                "passage": "the bridge is safe .", "answer": "safe"}) + "\n")
    answers.write_text(json.dumps({"answer": "safe ."}) + "\n")
    vocab, out = ["--vocab", str(tmp_path / "vocab.json")], ["--out", str(tmp_path / "out")]
    required = {
        "prepare": ["--data", str(data), *out],
        "extract-facts": ["--question", "what is a bridge ?", "--passage", "you cross water ."],
        "train": ["--data", str(data), *vocab, *out, "--profile", "desk"],
        "generate": ["--checkpoint", str(tmp_path / "m.ckpt"), *vocab, "--data", str(data),
                     *out],
        "evaluate": ["--predictions", str(answers), "--references", str(answers)],
    }[command]
    undecodable = tmp_path / "undecodable"
    undecodable.write_bytes(b"\xff\xfe bad \x80 bytes\n" * 8)
    for bad, want, text in ((tmp_path, 2, "is a directory"), (undecodable, code, message)):
        args = list(required)
        if option in args:
            args[args.index(option) + 1] = str(bad)
        else:
            args += [option, str(bad)]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == want, (bad, result.output)
        (record,) = map(json.loads, result.stderr.splitlines())
        assert record["event"] == "error" and text in record["message"], record
    assert not (tmp_path / "out").exists()


OUTPUT_OPTIONS = [("prepare", "--out"), ("train", "--out"), ("train", "--metrics"),
                  ("generate", "--out"), ("evaluate", "--out"), ("synth", "--out")]


@pytest.mark.parametrize("command, option", OUTPUT_OPTIONS,
                         ids=[command + option for command, option in OUTPUT_OPTIONS])
def test_cli_output_path_of_the_wrong_kind_or_outside_a_directory_exits_2(
        runner, tmp_path, command, option):
    """Every output option: a directory where a file is written (a file for
    synth's output directory), or a path whose parent is missing or is a
    file, is a usage error (exit 2), one JSON record before any work starts,
    and nothing is written."""
    write_vocab_and_checkpoint(tmp_path)
    data, answers = tmp_path / "d.jsonl", tmp_path / "answers.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?",
                                "passage": "the bridge is safe .", "answer": "safe"}) + "\n")
    answers.write_text(json.dumps({"answer": "safe ."}) + "\n")
    a_file = tmp_path / "a_file"
    a_file.write_text("kept\n")
    vocab, out = ["--vocab", str(tmp_path / "vocab.json")], ["--out", str(tmp_path / "out")]
    required = {
        "prepare": ["--data", str(data), *out],
        "train": ["--data", str(data), *vocab, *out, "--profile", "desk",
                  "--set", "training.max_steps=1"],
        "generate": ["--checkpoint", str(tmp_path / "m.ckpt"), *vocab, "--data", str(data),
                     *out],
        "evaluate": ["--predictions", str(answers), "--references", str(answers)],
        "synth": ["--task", "copy-q", "--size", "2", *out],
    }[command]
    wrong_kind = (a_file, "is a file") if command == "synth" else (tmp_path, "is a directory")
    before = sorted(tmp_path.iterdir())
    for bad, text in (wrong_kind, (tmp_path / "missing" / "out", "parent is not a directory"),
                      (a_file / "out", "parent is not a directory")):
        args = list(required)
        if option in args:
            args[args.index(option) + 1] = str(bad)
        else:
            args += [option, str(bad)]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 2, (bad, result.output)
        (record,) = map(json.loads, result.stderr.splitlines())
        assert record["event"] == "error" and text in record["message"], record
    assert sorted(tmp_path.iterdir()) == before and a_file.read_text() == "kept\n"


def test_cli_config_file_and_overrides(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[data]\nvocab_size = 100\n# comment\n[training]\nmax_steps = 3\n")
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "q ?", "passage": "p ."}) + "\n")
    vocab_path = tmp_path / "v.json"
    result = runner.invoke(main, ["prepare", "--data", str(data),
                                  "--out", str(vocab_path), "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    payload = json.loads(vocab_path.read_text())
    assert payload["max_size"] == 100


def test_all_tasks_write_files(runner, tmp_path):
    for i, task in enumerate(TASKS):
        out = tmp_path / task
        result = runner.invoke(main, ["synth", "--task", task, "--size", "3",
                                      "--seed", str(i), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / f"{task}.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3


def test_cli_full_pipeline_and_checkpoint_determinism(runner, tmp_path):
    """synth -> prepare -> train (twice, same seed) -> generate -> evaluate."""
    out = tmp_path / "sx"
    assert runner.invoke(main, ["synth", "--task", "copy-q", "--size", "4",
                                "--seed", "3", "--out", str(out)]).exit_code == 0
    data = out / "copy-q.jsonl"
    vocab_path = tmp_path / "vocab.json"
    assert runner.invoke(main, ["prepare", "--data", str(data), "--out",
                                str(vocab_path), "--profile", "desk"]).exit_code == 0

    small = ["--set", "model.emb_dim=8", "--set", "model.hidden_dim=8",
             "--set", "model.fact_dim=8", "--set", "training.max_steps=10",
             "--set", "training.batch_size=2"]
    ckpts = []
    for name in ("a.ckpt", "b.ckpt"):
        path = tmp_path / name
        result = runner.invoke(main, ["train", "--data", str(data),
                                      "--vocab", str(vocab_path),
                                      "--kb", str(out / "kb.tsv"),
                                      "--out", str(path), "--profile", "desk",
                                      "--seed", "7", *small])
        assert result.exit_code == 0, result.output
        ckpts.append(path.read_bytes())
    assert ckpts[0] == ckpts[1]

    pred = tmp_path / "pred.jsonl"
    result = runner.invoke(main, ["generate", "--checkpoint", str(tmp_path / "a.ckpt"),
                                  "--vocab", str(vocab_path), "--data", str(data),
                                  "--kb", str(out / "kb.tsv"),
                                  "--out", str(pred), "--beam", "2", "--trace"])
    assert result.exit_code == 0, result.output
    lines = pred.read_text().strip().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert "answer" in first and "trace" in first and "question" in first

    result = runner.invoke(main, ["evaluate", "--predictions", str(pred),
                                  "--references", str(data)])
    assert result.exit_code == 0, result.output
    headline = json.loads(result.output.strip().splitlines()[-1])
    assert 0.0 <= headline["rouge_l"] <= 1.0


def events(result):
    """The structured stderr records of a CLI run, keyed by event name."""
    return {rec["event"]: rec for rec in map(json.loads, result.stderr.splitlines())}


def write_vocab_and_checkpoint(tmp_path, nan_at=None):
    """vocab.json and a small untrained m.ckpt in ``tmp_path``; ``nan_at``
    names a weight whose first entry is saved as NaN."""
    vocab = make_vocab()
    vocab.save(tmp_path / "vocab.json")
    cfg = RunConfig.desk()
    cfg.model = ModelConfig(emb_dim=4, hidden_dim=3, fact_dim=5)
    model = AnswerModel(vocab, 1, cfg.model, np.random.default_rng(0))
    if nan_at is not None:
        model.parameters[nan_at].data.flat[0] = np.nan
    save_checkpoint(model, step=0, config=cfg, path=tmp_path / "m.ckpt")


def generate_records(runner, tmp_path, passages, nan_at=None):
    """``answergen generate`` with a small untrained checkpoint over one
    record per passage."""
    write_vocab_and_checkpoint(tmp_path, nan_at)
    data = tmp_path / "d.jsonl"
    data.write_text("".join(json.dumps({"question": "what is the bridge ?", "passage": p}) + "\n"
                            for p in passages))
    return runner.invoke(main, ["generate", "--checkpoint", str(tmp_path / "m.ckpt"),
                                "--vocab", str(tmp_path / "vocab.json"), "--data", str(data),
                                "--out", str(tmp_path / "pred.jsonl")])


def test_cli_generate_empty_passage_exits_3(runner, tmp_path):
    result = generate_records(runner, tmp_path, [""])
    assert result.exit_code == 3, result.output
    assert events(result)["error"]["kind"] == "data"
    assert not (tmp_path / "pred.jsonl").exists()


def test_cli_generate_with_a_nan_weight_exits_4(runner, tmp_path):
    result = generate_records(runner, tmp_path, ["the bridge is safe ."], nan_at="dec.w_h")
    assert result.exit_code == 4, result.output
    assert events(result)["error"]["kind"] == "numeric"
    assert not (tmp_path / "pred.jsonl").exists()


def test_cli_train_with_a_nan_embedding_exits_3(runner, tmp_path):
    vocab_path = tmp_path / "vocab.json"
    make_vocab().save(vocab_path)
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?",
                                "passage": "the bridge is safe .", "answer": "safe"}) + "\n")
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("the 0.1 0.2 0.3 0.4\nbridge nan 0.3 0.1 0.2\n")
    result = runner.invoke(main, ["train", "--data", str(data), "--vocab", str(vocab_path),
                                  "--embeddings", str(vectors), "--out", str(tmp_path / "m.ckpt"),
                                  "--profile", "desk", "--set", "model.emb_dim=4",
                                  "--set", "model.hidden_dim=3", "--set", "model.fact_dim=5",
                                  "--set", "training.max_steps=1"])
    assert result.exit_code == 3, result.output
    assert events(result)["error"]["message"] == f"{vectors} line 2: non-finite embedding value"
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_train_with_embeddings_of_another_width_exits_2(runner, tmp_path):
    """A 3-wide vector file against model.emb_dim 4 exits 2 naming both
    widths; a 4-wide file trains."""
    vocab_path = tmp_path / "vocab.json"
    make_vocab().save(vocab_path)
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?",
                                "passage": "the bridge is safe .", "answer": "safe"}) + "\n")
    vectors = tmp_path / "vectors.txt"

    def train_with(line):
        vectors.write_text(line)
        return runner.invoke(main, ["train", "--data", str(data), "--vocab", str(vocab_path),
                                    "--embeddings", str(vectors), "--out", str(tmp_path / "m.ckpt"),
                                    "--profile", "desk", "--set", "model.emb_dim=4",
                                    "--set", "model.hidden_dim=3", "--set", "model.fact_dim=5",
                                    "--set", "training.max_steps=1"])

    result = train_with("the 0.1 0.2 0.3\n")
    assert result.exit_code == 2, result.output
    assert events(result)["error"]["message"] == \
        "embedding file is 3-dimensional, model.emb_dim is 4"
    assert not (tmp_path / "m.ckpt").exists()
    assert train_with("the 0.1 0.2 0.3 0.4\n").exit_code == 0


def test_cli_generate_names_the_failing_record(runner, tmp_path):
    result = generate_records(runner, tmp_path, ["the bridge is safe .", ""])
    assert result.exit_code == 3, result.output
    error = events(result)["error"]
    assert error["kind"] == "data"
    assert error["message"] == f"{tmp_path / 'd.jsonl'} line 2: passage has no tokens"
    assert not (tmp_path / "pred.jsonl").exists()


@pytest.mark.parametrize("command", ["train", "generate"])
def test_cli_record_that_fails_to_encode_names_its_line(runner, tmp_path, command):
    """A good record, a blank line, then a record with an empty passage:
    the error names the file and line 3, as a line that fails to parse does."""
    write_vocab_and_checkpoint(tmp_path)
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?", "passage": "it is ."})
                    + "\n\n" + json.dumps({"question": "what is it ?", "passage": ""}) + "\n")
    vocab, out = ["--vocab", str(tmp_path / "vocab.json")], ["--out", str(tmp_path / "out")]
    args = {"train": ["--profile", "desk"],
            "generate": ["--checkpoint", str(tmp_path / "m.ckpt")]}[command]
    result = runner.invoke(main, [command, "--data", str(data), *vocab, *out, *args])
    assert result.exit_code == 3, result.output
    assert events(result)["error"]["message"] == f"{data} line 3: passage has no tokens"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["prepare", "train", "generate"])
def test_cli_data_line_that_is_not_an_object_exits_3(runner, tmp_path, command):
    write_vocab_and_checkpoint(tmp_path)
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?", "passage": "it is ."})
                    + "\n3\n")
    vocab, out = ["--vocab", str(tmp_path / "vocab.json")], ["--out", str(tmp_path / "out")]
    args = {"prepare": [], "train": vocab,
            "generate": ["--checkpoint", str(tmp_path / "m.ckpt"), *vocab]}[command]
    result = runner.invoke(main, [command, "--data", str(data), *out, *args])
    assert result.exit_code == 3, result.output
    assert events(result)["error"]["message"] == f"{data} line 2: not a JSON object"


def test_cli_evaluate_line_that_is_not_json_exits_3(runner, tmp_path):
    answers = tmp_path / "answers.jsonl"
    answers.write_text(json.dumps({"answer": "a dog ran ."}) + "\n{broken\n")
    result = runner.invoke(main, ["evaluate", "--predictions", str(answers),
                                  "--references", str(answers)])
    assert result.exit_code == 3, result.output
    assert events(result)["error"]["message"] == f"{answers} line 2: invalid JSON"


def test_cli_train_with_a_vocabulary_that_is_not_json_exits_3(runner, tmp_path):
    vocab = tmp_path / "vocab.json"
    vocab.write_text("the cat sat\n")
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "q ?", "passage": "p ."}) + "\n")
    result = runner.invoke(main, ["train", "--data", str(data), "--vocab", str(vocab),
                                  "--out", str(tmp_path / "m.ckpt")])
    assert result.exit_code == 3, result.output
    assert events(result)["error"]["message"] == f"{vocab} is not a vocabulary file"


def test_cli_train_with_a_vocabulary_too_small_for_the_specials_exits_3(runner, tmp_path):
    """A max_size below the four special tokens is a bad vocabulary file,
    named as every other one is."""
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps({"max_size": 2, "tokens": []}))
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "q ?", "passage": "p ."}) + "\n")
    result = runner.invoke(main, ["train", "--data", str(data), "--vocab", str(vocab),
                                  "--out", str(tmp_path / "m.ckpt")])
    assert result.exit_code == 3, result.output
    assert events(result)["error"]["message"] == f"{vocab} is not a vocabulary file"


def test_cli_events_report_kb_skipped_lines(runner, tmp_path):
    """Each command that reads a KB lists its skipped line numbers in its
    event, and nothing else reaches stderr: run as a process, outside the
    test runner's log capture, every stderr line is a JSON record."""
    kb = tmp_path / "kb.tsv"
    kb.write_text("bridge\tUsedFor\tcross water\nno tabs on this line\nwater\tIsA\tsafe\n")
    env = {**os.environ, "PYTHONPATH": str(Path(answergen.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "answergen.cli", "extract-facts",
                           "--kb", str(kb), "--question", "what is a bridge ?",
                           "--passage", "you cross water on it ."],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stderr.splitlines()]
    assert [rec["event"] for rec in records] == ["extract-facts"]
    assert records[0]["kb_skipped_lines"] == [2]

    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?",
                                "passage": "the bridge is safe .", "answer": "safe"}) + "\n")
    vocab_path, ckpt = tmp_path / "vocab.json", tmp_path / "m.ckpt"
    make_vocab().save(vocab_path)
    small = ["--profile", "desk", "--set", "model.emb_dim=4", "--set", "model.hidden_dim=3",
             "--set", "model.fact_dim=5", "--set", "training.max_steps=1"]
    result = runner.invoke(main, ["train", "--data", str(data), "--vocab", str(vocab_path),
                                  "--kb", str(kb), "--out", str(ckpt), *small])
    assert result.exit_code == 0, result.output
    assert events(result)["train-start"]["kb_skipped_lines"] == [2]

    result = runner.invoke(main, ["generate", "--checkpoint", str(ckpt),
                                  "--vocab", str(vocab_path), "--data", str(data),
                                  "--kb", str(kb), "--out", str(tmp_path / "pred.jsonl")])
    assert result.exit_code == 0, result.output
    assert events(result)["generate"]["kb_skipped_lines"] == [2]


def test_cli_generate_refuses_a_kb_whose_relations_differ(runner, tmp_path):
    """Relation ids follow the KB's line order, and the checkpoint pins the
    names: the same KB is accepted, the same triples reordered exit 3."""
    lines = ["bridge\tUsedFor\tcross water\n", "water\tIsA\tsafe\n"]
    kb, reordered = tmp_path / "kb.tsv", tmp_path / "reordered.tsv"
    kb.write_text("".join(lines))
    reordered.write_text("".join(lines[::-1]))
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?",
                                "passage": "the bridge is safe .", "answer": "safe"}) + "\n")
    vocab_path, ckpt = tmp_path / "vocab.json", tmp_path / "m.ckpt"
    make_vocab().save(vocab_path)
    small = ["--profile", "desk", "--set", "model.emb_dim=4", "--set", "model.hidden_dim=3",
             "--set", "model.fact_dim=5", "--set", "training.max_steps=1"]
    result = runner.invoke(main, ["train", "--data", str(data), "--vocab", str(vocab_path),
                                  "--kb", str(kb), "--out", str(ckpt), *small])
    assert result.exit_code == 0, result.output

    def generate(kb_path):
        return runner.invoke(main, ["generate", "--checkpoint", str(ckpt),
                                    "--vocab", str(vocab_path), "--data", str(data),
                                    "--kb", str(kb_path), "--out", str(tmp_path / "pred.jsonl")])

    assert generate(kb).exit_code == 0
    result = generate(reordered)
    assert result.exit_code == 3, result.output
    assert events(result)["error"]["kind"] == "data"


def test_cli_generate_refuses_a_version_four_checkpoint(runner, tmp_path):
    """A checkpoint written before the relation names were pinned exits 3."""
    result = generate_records(runner, tmp_path, ["the bridge is safe ."])
    assert result.exit_code == 0, result.output
    path = tmp_path / "m.ckpt"
    blob = bytearray(path.read_bytes())
    blob[4:8] = (4).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    result = runner.invoke(main, ["generate", "--checkpoint", str(path),
                                  "--vocab", str(tmp_path / "vocab.json"),
                                  "--data", str(tmp_path / "d.jsonl"),
                                  "--out", str(tmp_path / "pred.jsonl")])
    assert result.exit_code == 3, result.output
    assert events(result)["error"]["kind"] == "data"


def test_cli_generate_on_a_checkpoint_without_the_relation_table_exits_3(runner, tmp_path):
    """A checksum-valid checkpoint that lacks sel.relations is refused by
    name, not with a traceback."""
    vocab = make_vocab()
    vocab.save(tmp_path / "vocab.json")
    cfg = RunConfig.desk()
    cfg.model = ModelConfig(emb_dim=4, hidden_dim=3, fact_dim=5)
    model = AnswerModel(vocab, 1, cfg.model, np.random.default_rng(0))
    del model.parameters["sel.relations"]
    save_checkpoint(model, step=0, config=cfg, path=tmp_path / "m.ckpt")
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps({"question": "what is the bridge ?",
                                "passage": "the bridge is safe ."}) + "\n")
    result = runner.invoke(main, ["generate", "--checkpoint", str(tmp_path / "m.ckpt"),
                                  "--vocab", str(tmp_path / "vocab.json"), "--data", str(data),
                                  "--out", str(tmp_path / "pred.jsonl")])
    assert result.exit_code == 3, result.output
    assert "sel.relations" in events(result)["error"]["message"]
