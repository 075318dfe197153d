import json
import os

import pytest
from click.testing import CliRunner

from answergen.cli import main
from answergen.config import RunConfig
from answergen.generate import GenerationResult, write_predictions
from answergen.synth import synth_generate
from answergen.training import save_checkpoint

from conftest import make_model

PREVIOUS = b"previous contents\n"


class Interrupted(Exception):
    pass


def result(answer):
    return GenerationResult(tokens=[answer], trace=[], score=0.0, normalized_score=0.0)


class FailingResult:
    def to_dict(self, question):
        raise Interrupted("serialization failed")


def fail(*args):
    raise Interrupted("disk failed")


WRITERS = {
    "checkpoint": lambda vocab, path: save_checkpoint(make_model(vocab), 0, RunConfig.desk(),
                                                      path),
    "vocabulary": lambda vocab, path: vocab.save(path),
    "predictions": lambda vocab, path: write_predictions(path, [("q", result("a"))]),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file(writer, vocab, tmp_path, monkeypatch):
    """The new bytes are all written but never synced: the old file stays
    byte-identical and the temporary file is gone."""
    path = tmp_path / "artifact"
    path.write_bytes(PREVIOUS)
    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(Interrupted):
        WRITERS[writer](vocab, path)
    assert path.read_bytes() == PREVIOUS
    assert os.listdir(tmp_path) == ["artifact"]


def test_predictions_failing_midway_keep_previous_file(tmp_path):
    """The first record reaches the temporary file before the second fails."""
    path = tmp_path / "predictions.jsonl"
    path.write_bytes(PREVIOUS)
    with pytest.raises(Interrupted):
        write_predictions(path, [("q1", result("a")), ("q2", FailingResult())])
    assert path.read_bytes() == PREVIOUS
    assert os.listdir(tmp_path) == ["predictions.jsonl"]


@pytest.mark.parametrize("synced", [0, 1])
def test_failed_synth_keeps_each_file_whole(tmp_path, monkeypatch, synced):
    """synth writes copy-q.jsonl, then kb.tsv. When the sync after ``synced``
    good ones fails, every file holds its previous bytes or the whole new
    file, and no temporary file is left."""
    fresh = tmp_path / "fresh"
    synth_generate("copy-q", 3, 0, fresh)
    out = tmp_path / "out"
    out.mkdir()
    names = ["copy-q.jsonl", "kb.tsv"]
    for name in names:
        (out / name).write_bytes(PREVIOUS)
    real_fsync, calls = os.fsync, []

    def fsync(fd):
        calls.append(fd)
        if len(calls) > synced:
            fail()
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(Interrupted):
        synth_generate("copy-q", 3, 0, out)
    for i, name in enumerate(names):
        want = (fresh / name).read_bytes() if i < synced else PREVIOUS
        assert (out / name).read_bytes() == want, name
    assert sorted(os.listdir(out)) == names


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_previous_file(writer, vocab, tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(PREVIOUS)
    WRITERS[writer](vocab, path)
    assert path.read_bytes() != PREVIOUS
    assert os.listdir(tmp_path) == ["artifact"]


def test_failed_evaluation_report_keeps_previous_report(tmp_path, monkeypatch):
    answers = tmp_path / "answers.jsonl"
    answers.write_text(json.dumps({"answer": "a dog ran ."}) + "\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    report = out_dir / "report.json"
    report.write_bytes(PREVIOUS)
    monkeypatch.setattr(os, "fsync", fail)
    result = CliRunner().invoke(main, ["evaluate", "--predictions", str(answers),
                                       "--references", str(answers), "--out", str(report)])
    assert isinstance(result.exception, Interrupted), result.output
    assert report.read_bytes() == PREVIOUS
    assert os.listdir(out_dir) == ["report.json"]
