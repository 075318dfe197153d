import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from answergen import knowledge
from answergen.knowledge import (
    Fact,
    KnowledgeBase,
    RunSets,
    ScoredFact,
    extract_related_facts,
    ingest_triples,
    score_fact,
)


def make_kb(triples):
    """Build a KnowledgeBase from (subject, relation, object) token tuples."""
    kb = KnowledgeBase()
    for subject, relation, obj in triples:
        kb.add(tuple(subject), relation, tuple(obj))
    return kb


def score(fact, q, p):
    subject = fact.subject
    q_runs, p_runs = RunSets(q), RunSets(p)
    return score_fact(fact, subject in q_runs[len(subject)], subject in p_runs[len(subject)],
                      p_runs)


# --- independent brute-force oracle: literal rule application on every fact ---

def naive_occurs(needle, hay):
    needle = list(needle)
    hay = list(hay)
    return any(hay[i:i + len(needle)] == needle for i in range(len(hay))) and len(needle) > 0


def brute_force_extract(kb, q, p, n_facts):
    out = []
    for fact in kb.facts:
        sq = naive_occurs(fact.subject, q)
        sp = naive_occurs(fact.subject, p)
        op = naive_occurs(fact.object, p)
        oq = naive_occurs(fact.object, q)
        if not (sq or sp or op or oq):
            continue
        score = (4 if (sq and op) else 0) + (2 if (sp and op) else 0) + (1 if (sq or sp) else 0)
        if score > 0:
            out.append(ScoredFact(fact.fact_id, score))
    out.sort(key=lambda sf: (-sf.score, sf.fact_id))
    return out[:n_facts]


def test_ingest_bridge_line(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("bridge\tUsedFor\tcross water\n")
    kb = ingest_triples(path)
    assert len(kb.facts) == 1
    fact = kb.facts[0]
    assert fact.subject == ("bridge",)
    assert kb.relation_name(fact) == "UsedFor"
    assert fact.object == ("cross", "water")


def test_ingest_skips_malformed_with_count(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("a\tR\tb\nbroken line\nc\tR\n\nd\tR\te\n")
    kb = ingest_triples(path)
    assert len(kb.facts) == 2
    assert kb.skipped_lines == [2, 3]


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("")
    kb = ingest_triples(path)
    assert kb.facts == []
    assert extract_related_facts(kb, ["a"], ["b"], 5) == []


def test_score_subject_in_question_only():
    fact = Fact(("bridge",), 0, ("tower",), 0)
    assert score(fact, ["the", "bridge"], ["nothing", "here"]) == 1


def test_score_subject_q_object_p():
    fact = Fact(("bridge",), 0, ("cross", "water"), 0)
    assert score(fact, ["the", "bridge", "?"], ["you", "cross", "water", "there"]) == 5


def test_score_full_overlap_ranks_first():
    q = ["the", "bridge", "?"]
    p = ["a", "bridge", "helps", "cross", "water"]
    both = Fact(("bridge",), 0, ("cross", "water"), 0)   # subj in q and p, obj in p
    q_only = Fact(("bridge",), 0, ("steel",), 1)
    assert score(both, q, p) == 7
    assert score(q_only, q, p) == 1


def test_unrelated_fact_excluded():
    kb = make_kb([(["zzz"], "R", ["yyy"])])
    assert extract_related_facts(kb, ["a", "b"], ["c", "d"], 5) == []


def test_object_only_match_scores_zero_and_drops():
    kb = make_kb([(["zzz"], "R", ["water"])])
    assert extract_related_facts(kb, ["question"], ["water", "here"], 5) == []


def test_multiword_requires_contiguous():
    fact = Fact(("red", "bridge"), 0, ("x",), 0)
    assert score(fact, ["red", "bridge"], []) == 1
    assert score(fact, ["red", "old", "bridge"], []) == 0


def test_empty_or_overlong_phrase_never_matches():
    q, p = ["a"], ["b", "a"]
    assert RunSets(q)[0] == set() and RunSets(q)[2] == set()
    empty_subject = Fact((), 0, ("a",), 0)
    empty_object = Fact(("a",), 0, (), 1)
    long_subject = Fact(("b", "a", "c"), 0, ("a",), 2)
    long_object = Fact(("a",), 0, ("b", "a", "c"), 3)
    matching = Fact(("a",), 0, ("b", "a"), 4)
    assert score(empty_subject, q, p) == 0      # only its object occurs
    assert score(empty_object, q, p) == 1       # subject alone: +1, no +4 or +2
    assert score(long_subject, q, p) == 0
    assert score(long_object, q, p) == 1
    assert score(matching, q, p) == 7
    kb = make_kb([((), "R", ("a",)), (("a",), "R", ()), (("b", "a", "c"), "R", ("a",)),
                  (("a",), "R", ("b", "a", "c")), (("a",), "R", ("b", "a"))])
    assert extract_related_facts(kb, q, p, 10) == [
        ScoredFact(4, 7), ScoredFact(1, 1), ScoredFact(3, 1)]


def test_extraction_scores_only_facts_whose_subject_occurs(monkeypatch):
    """One score_fact call per fact whose subject occurs in either text, none
    for a fact that matches only through its object, and at most one run set
    per text and run length, on a full-profile passage and a 10K KB."""
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(2000)]
    draw = lambda k: [words[i] for i in rng.integers(len(words), size=k)]  # noqa: E731
    kb = make_kb([(draw(rng.integers(1, 4)), "R", draw(rng.integers(1, 4)))
                  for _ in range(10_000)])
    q, p = draw(12), draw(800)
    scored_ids, built = [], []
    real_score, real_missing = knowledge.score_fact, RunSets.__missing__

    def counting_score(fact, *args):
        scored_ids.append(fact.fact_id)
        return real_score(fact, *args)

    def counting_missing(run_sets, length):
        built.append((id(run_sets.tokens), length))
        return real_missing(run_sets, length)

    monkeypatch.setattr(knowledge, "score_fact", counting_score)
    monkeypatch.setattr(RunSets, "__missing__", counting_missing)
    extract_related_facts(kb, q, p, 256)
    in_either = {n: {tuple(t[i:i + n]) for t in (q, p) for i in range(len(t) - n + 1)}
                 for n in (1, 2, 3)}
    occurs = {f.fact_id for f in kb.facts if f.subject in in_either[len(f.subject)]}
    object_only = {f.fact_id for f in kb.facts
                   if f.fact_id not in occurs and f.object in in_either[len(f.object)]}
    assert len(scored_ids) == len(set(scored_ids))
    assert set(scored_ids) == occurs
    assert object_only and not object_only & set(scored_ids)
    assert len(built) == len(set(built))
    assert {length for _, length in built} <= {1, 2, 3}


token_st = st.sampled_from(["red", "bridge", "water", "cross", "cat", "dog", "x", "y"])
phrase_st = st.lists(token_st, min_size=1, max_size=5)
# a short pattern said several times over: every run occurs more than once
repeated_st = st.lists(token_st, min_size=1, max_size=3).flatmap(
    lambda pattern: st.integers(1, 4).map(lambda times: pattern * times))


@given(
    st.lists(st.tuples(phrase_st, st.sampled_from(["R1", "R2"]), phrase_st),
             min_size=0, max_size=60),
    st.one_of(st.lists(token_st, min_size=1, max_size=8), repeated_st),
    st.one_of(st.lists(token_st, min_size=1, max_size=12), repeated_st),
    st.integers(1, 40),
)
@settings(max_examples=200, deadline=None)
def test_extraction_matches_brute_force(triples, q, p, n_facts):
    kb = make_kb(triples)
    assert extract_related_facts(kb, q, p, n_facts) == brute_force_extract(kb, q, p, n_facts)


def test_output_bounded_and_sorted():
    rng = np.random.default_rng(0)
    pool = ["a", "b", "c", "d", "e"]
    triples = [([pool[rng.integers(5)]], "R", [pool[rng.integers(5)]]) for _ in range(50)]
    kb = make_kb(triples)
    result = extract_related_facts(kb, ["a", "b"], ["c", "d", "a"], 7)
    assert len(result) <= 7
    scores = [sf.score for sf in result]
    assert scores == sorted(scores, reverse=True)


def test_adding_unrelated_fact_preserves_scores():
    kb = make_kb([(["bridge"], "R", ["water"])])
    q, p = ["bridge", "?"], ["water", "flows"]
    before = extract_related_facts(kb, q, p, 10)
    kb2 = make_kb([(["bridge"], "R", ["water"]), (["qqq"], "R", ["zzz"])])
    after = extract_related_facts(kb2, q, p, 10)
    assert before == after
