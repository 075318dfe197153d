"""Smoke test of the benchmark: every workload at minimal length.

    python3 -m pytest bench/tests -q
"""
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def few_answers(monkeypatch):
    """Minimal runs decode 8 answers, not 100."""
    monkeypatch.setattr(run, "MIN_ANSWERS", 8)


def minimal(name: str, **overrides):
    workload = replace(run.WORKLOADS[name], records=12, train_steps=1, requests=4,
                       chunk=2, setup_reps=1)
    if overrides:
        workload = replace(workload, overrides={**workload.overrides, **overrides})
    return workload


def emitted(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: unit for name, (unit, _) in run.PER_LAYER.items()}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_emits_every_metric(name):
    result, report = run.execute(minimal(name), seed=1, seconds=0, trace=False)
    assert result["correct"], report["check_failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert emitted(result) == run.END_TO_END
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())

    traced, report = run.execute(minimal(name), seed=1, seconds=0, trace=True)
    assert traced["correct"], report["check_failures"]
    assert emitted(traced) == {n: unit for n, (unit, _) in run.PER_LAYER.items()}
    assert report["missing_targets"] == []


def test_idle_layer_reports_zero():
    """With the knowledge source off, the knowledge layers do no work and
    still report their metrics, as 0."""
    result, _ = run.execute(minimal("kb-dense", **{"knowledge.enabled": False}),
                            seed=1, seconds=0, trace=True)
    metrics = result["metrics"]
    for name in ("knowledge.extract_ms", "knowledge.candidates_per_query",
                 "knowledge.facts_per_query", "knowledge.useful_ratio",
                 "selectors.embed_facts_ms", "selectors.facts_embedded",
                 "selectors.fact_selector_ms", "generate.knowledge_choices_per_answer"):
        assert metrics[name]["value"] == 0, name


def test_same_seed_same_outputs():
    first, a = run.execute(minimal("kb-dense"), seed=5, seconds=0, trace=False)
    second, b = run.execute(minimal("kb-dense"), seed=5, seconds=0, trace=False)
    assert a["digests"] == b["digests"]
    assert first["metrics"]["train_loss_final"] == second["metrics"]["train_loss_final"]


def test_failed_check_fails_the_run(monkeypatch):
    monkeypatch.setattr(run.decoding, "trace_score", lambda trace: float("inf"))
    result, report = run.execute(minimal("kb-dense"), seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1 and report["check_failures"]



def test_wrong_gradient_fails_the_run(monkeypatch):
    """A 1% error in the embedding gradient fails the gradient check, though
    Adam, being scale-free per entry, would train on it almost unchanged."""
    backward = run.ad.Tape.backward

    def skewed(self, loss, params=None):
        grads = backward(self, loss, params)
        for tensor in grads.grads:
            if tensor.name == "embedding":
                grads.grads[tensor] = grads.grads[tensor] * 1.01
        return grads

    monkeypatch.setattr(run.ad.Tape, "backward", skewed)
    result, report = run.execute(minimal("kb-dense"), seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert any("group embedding" in failure for failure in report["check_failures"])
