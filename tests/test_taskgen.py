"""Task families: frozen solver oracles, slot domains, determinism."""

from __future__ import annotations

import datetime as dt
import json
import re

import pytest

from ctax.errors import ConfigError
from ctax.taskgen import (
    DURATIONS,
    FAMILIES,
    ITEMS,
    NAMES,
    TOOL_NAME,
    TOPICS,
    TRACE_OPS,
    WORDS,
    generate_suite,
    instance_from_dict,
    instance_to_dict,
    read_suite,
    resolve_relative_date,
    solve,
    write_suite,
)
from ctax.validation import canonical_serialize


# ---------------------------------------------------------------------------
# frozen solver examples (hand-computed, never derived from the solver)
# ---------------------------------------------------------------------------

def test_arithmetic_worked_example():
    gt = solve("arithmetic_two_step", {"r": 3, "b": 5, "a": 2, "m": 1})
    assert gt.final_answer == "9"
    assert [s.output for s in gt.trace] == ["8", "10", "9", "9"]
    assert [s.op_name for s in gt.trace] == [
        "initial_total", "add_red", "remove_blue", "final_total"]


def test_arithmetic_more_examples():
    cases = [
        ({"r": 2, "b": 2, "a": 1, "m": 1}, "4"),
        ({"r": 20, "b": 20, "a": 9, "m": 1}, "48"),
        ({"r": 11, "b": 6, "a": 2, "m": 4}, "15"),
    ]
    for slots, want in cases:
        assert solve("arithmetic_two_step", slots).final_answer == want


def test_symbolic_worked_example():
    gt = solve("symbolic_string", {"words": ["cat", "dog"]})
    assert gt.final_answer == "tg"
    assert gt.trace[-1].op_name == "concatenate"
    assert [s.output for s in gt.trace[:-1]] == ["t", "g"]


def test_symbolic_four_words():
    gt = solve("symbolic_string", {"words": ["apple", "banana", "cherry", "fig"]})
    assert gt.final_answer == "eayg"


def test_tracking_worked_example():
    slots = {"p1": "Ann", "p2": "Bob", "p3": "Eve", "i2": "book", "i3": "coin"}
    gt = solve("object_tracking", slots)
    # Ann holds the key; swap(Ann,Bob) moves it to Bob; swap(Bob,Eve) to Eve
    assert gt.final_answer == "eve"
    assert gt.trace[-1].op_name == "holder_of_key"
    assert gt.trace[-1].output == "eve"
    assert [s.op_name for s in gt.trace] == [
        "initial_state", "swap", "swap", "holder_of_key"]
    assert gt.trace[0].output == "ann:key,bob:book,eve:coin"


def test_tracking_key_always_lands_on_third():
    # the fixed swap chain (p1,p2)(p2,p3) hands the key to p3
    slots = {"p1": "Kate", "p2": "Leo", "p3": "Dan", "i2": "mug", "i3": "book"}
    assert solve("object_tracking", slots).final_answer == "dan"


def test_boolean_truth_table():
    # final = (a and not b) or b simplifies to a or b
    for a in (False, True):
        for b in (False, True):
            gt = solve("boolean_logic", {"a": a, "b": b})
            assert gt.final_answer == str(a or b).lower()
            assert [s.op_name for s in gt.trace] == ["not", "and", "or"]


def test_calendar_worked_example():
    slots = {"today": "2025-03-03", "date_phrase": "tomorrow",
             "start_time": "14:30", "duration_minutes": 30,
             "attendee": "Leo", "topic": "budget review"}
    gt = solve("tool_call_argument", slots)
    args = gt.exec_target["arguments"]
    assert gt.exec_target["tool"] == TOOL_NAME
    assert args["date"] == "2025-03-04"
    assert args["attendee"] == "leo"
    assert args["duration_minutes"] == 30
    assert args["title"] == "meeting about budget review"
    assert gt.final_answer == canonical_serialize(gt.exec_target)


def test_calendar_trace_shape():
    slots = {"today": "2025-06-01", "date_phrase": "in 3 days",
             "start_time": "09:00", "duration_minutes": 60,
             "attendee": "Ann", "topic": "project sync"}
    gt = solve("tool_call_argument", slots)
    assert [s.op_name for s in gt.trace] == list(TRACE_OPS["tool_call_argument"])
    assert gt.trace[1].output == "2025-06-04"
    assert gt.trace[-1].output == gt.final_answer


def test_solve_unknown_family():
    with pytest.raises(ConfigError):
        solve("nope", {})


# ---------------------------------------------------------------------------
# relative date resolution vs a day-scan oracle
# ---------------------------------------------------------------------------

def _scan_next_weekday(today: dt.date, weekday_name: str) -> dt.date:
    names = ["monday", "tuesday", "wednesday", "thursday", "friday",
             "saturday", "sunday"]
    want = names.index(weekday_name.lower())
    day = today + dt.timedelta(days=1)
    while day.weekday() != want:
        day += dt.timedelta(days=1)
    return day


def test_resolve_fixed_phrases():
    today = dt.date(2025, 3, 3)  # a Monday
    assert resolve_relative_date(today, "today") == today
    assert resolve_relative_date(today, "tomorrow") == dt.date(2025, 3, 4)
    for n in range(2, 7):
        assert resolve_relative_date(today, f"in {n} days") == today + dt.timedelta(days=n)


def test_resolve_next_weekday_strictly_future():
    names = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
             "Saturday", "Sunday"]
    for offset in range(14):  # two weeks of anchor days
        today = dt.date(2025, 1, 6) + dt.timedelta(days=offset)
        for name in names:
            got = resolve_relative_date(today, f"next {name}")
            want = _scan_next_weekday(today, name)
            assert got == want
            assert today < got <= today + dt.timedelta(days=7)


def test_resolve_unknown_phrase():
    with pytest.raises(ValueError):
        resolve_relative_date(dt.date(2025, 1, 1), "someday")


# ---------------------------------------------------------------------------
# lexicons
# ---------------------------------------------------------------------------

def test_lexicon_sizes():
    assert len(WORDS) == 64
    assert len(set(WORDS)) == 64
    assert len(NAMES) == 12
    assert len(ITEMS) == 8
    assert "key" in ITEMS
    assert len(TOPICS) == 8
    assert len(DURATIONS) == 5


def test_lexicon_entries_are_clean():
    for word in WORDS:
        assert re.fullmatch(r"[a-z]+", word)
    for topic in TOPICS:
        assert topic == topic.lower().strip()


# ---------------------------------------------------------------------------
# generated slot domains
# ---------------------------------------------------------------------------

def test_arithmetic_slot_domains():
    for inst in generate_suite("arithmetic_two_step", 200, seed=5):
        s = inst.slots
        assert 2 <= s["r"] <= 20 and 2 <= s["b"] <= 20
        assert 1 <= s["a"] <= 9
        assert 1 <= s["m"] <= 9 and s["m"] < s["b"]
        assert int(inst.ground_truth.final_answer) > 0


def test_symbolic_slot_domains():
    seen_k = set()
    for inst in generate_suite("symbolic_string", 200, seed=5):
        words = inst.slots["words"]
        seen_k.add(len(words))
        assert 3 <= len(words) <= 6
        assert len(set(words)) == len(words)
        for word in words:
            assert word in WORDS
    assert seen_k == {3, 4, 5, 6}


def test_tracking_slot_domains():
    from ctax.validation import normalize_answer

    for inst in generate_suite("object_tracking", 200, seed=5):
        s = inst.slots
        people = [s["p1"], s["p2"], s["p3"]]
        assert len(set(people)) == 3
        for person in people:
            assert person in NAMES
        assert s["i2"] in ITEMS and s["i3"] in ITEMS
        assert "key" not in (s["i2"], s["i3"])
        assert s["i2"] != s["i3"]
        assert inst.ground_truth.final_answer == normalize_answer(s["p3"])


def test_boolean_slot_domains():
    seen = set()
    for inst in generate_suite("boolean_logic", 200, seed=5):
        seen.add((inst.slots["a"], inst.slots["b"]))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_calendar_slot_domains():
    phrase_re = re.compile(
        r"^(today|tomorrow|in [2-6] days|next (Monday|Tuesday|Wednesday|Thursday|Friday|Saturday|Sunday))$")
    for inst in generate_suite("tool_call_argument", 200, seed=5):
        s = inst.slots
        today = dt.date.fromisoformat(s["today"])
        assert today.year == 2025
        assert phrase_re.match(s["date_phrase"])
        hours, minutes = map(int, s["start_time"].split(":"))
        total = hours * 60 + minutes
        assert 8 * 60 <= total <= 18 * 60
        assert total % 15 == 0
        assert s["duration_minutes"] in DURATIONS
        assert s["attendee"] in NAMES
        assert s["topic"] in TOPICS
        args = inst.ground_truth.exec_target["arguments"]
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}", args["date"])
        assert re.fullmatch(r"\d{2}:\d{2}", args["start_time"])


# ---------------------------------------------------------------------------
# suite generation mechanics
# ---------------------------------------------------------------------------

def test_generate_suite_counts_and_ids():
    suite = generate_suite("boolean_logic", 25, seed=9)
    assert len(suite) == 25
    for index, inst in enumerate(suite):
        assert re.fullmatch(rf"boolean_logic-{index:05d}-[0-9a-f]{{8}}", inst.id)
        assert inst.family == "boolean_logic"
        assert inst.problem_text


def test_generate_suite_deterministic():
    a = generate_suite("symbolic_string", 40, seed=123)
    b = generate_suite("symbolic_string", 40, seed=123)
    assert [instance_to_dict(x) for x in a] == [instance_to_dict(y) for y in b]


def test_generate_suite_seed_changes_content():
    a = generate_suite("arithmetic_two_step", 40, seed=1)
    b = generate_suite("arithmetic_two_step", 40, seed=2)
    assert [x.slots for x in a] != [y.slots for y in b]
    assert a[0].id != b[0].id  # seed participates in the id suffix


def test_generate_suite_prefix_stability():
    # first k instances of a longer suite equal the k-instance suite
    short = generate_suite("object_tracking", 10, seed=77)
    long = generate_suite("object_tracking", 30, seed=77)
    assert [instance_to_dict(x) for x in short] == \
        [instance_to_dict(y) for y in long[:10]]


def test_generate_suite_rejects_unknown_family():
    with pytest.raises(ConfigError):
        generate_suite("unknown_family", 5, seed=0)


def test_problem_text_embeds_slots():
    inst = generate_suite("arithmetic_two_step", 1, seed=4)[0]
    s = inst.slots
    for value in (s["r"], s["b"], s["a"], s["m"]):
        assert str(value) in inst.problem_text


def test_calendar_problem_text_mentions_tool():
    inst = generate_suite("tool_call_argument", 1, seed=4)[0]
    assert TOOL_NAME in inst.problem_text
    assert inst.slots["today"] in inst.problem_text


def test_family_list_is_stable():
    assert FAMILIES == ("arithmetic_two_step", "symbolic_string",
                        "object_tracking", "boolean_logic", "tool_call_argument")


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------

def test_instance_round_trip():
    for family in FAMILIES:
        for inst in generate_suite(family, 5, seed=2):
            doc = instance_to_dict(inst)
            back = instance_from_dict(doc)
            assert back == inst
            assert instance_to_dict(back) == doc


def test_an_instance_edited_under_its_id_hashes_the_same_and_differs(tmp_path):
    original = generate_suite("arithmetic_two_step", 2, seed=5)
    path = tmp_path / "tasks.jsonl"
    write_suite(original, path)
    docs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    docs[0]["ground_truth"]["answer"] += "0"
    docs[1]["slots"]["edited"] = True
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    for edited, inst in zip(read_suite(path), original):
        assert edited.id == inst.id
        assert edited != inst
        assert hash(edited) == hash(inst)
    assert read_suite(path) == read_suite(path)


@pytest.mark.parametrize("edit, error", [
    (lambda doc: doc.update(family="bogus"), "ValueError: unknown task family: 'bogus'"),
    (lambda doc: doc.update(id=7), "TypeError: id must be a string, got 7"),
    (lambda doc: doc.update(problem_text=None), "TypeError: problem_text must be a string"),
    (lambda doc: doc["ground_truth"].update(answer=18),
     "TypeError: answer must be a string, got 18"),
    (lambda doc: doc["ground_truth"]["trace"][0].update(op=1), "TypeError: trace op must be"),
    (lambda doc: doc["ground_truth"]["trace"][-1].update(output=18),
     "TypeError: trace output must be a string, got 18"),
    (lambda doc: doc["ground_truth"].update(exec_target=["tool"]),
     "TypeError: exec_target must be an object or null, got ['tool']"),
], ids=["unknown-family", "number-id", "null-problem", "number-answer", "number-op",
        "number-output", "list-exec-target"])
def test_a_tasks_line_of_the_wrong_type_is_refused_naming_its_line(tmp_path, edit, error):
    """A tasks line is outside input: read as it stands, a number answer
    would fail every completion's string comparison, and an unknown family
    would file records under it."""
    path = tmp_path / "tasks.jsonl"
    write_suite(generate_suite("arithmetic_two_step", 2, seed=5), path)
    docs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(docs[1])
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    with pytest.raises(ConfigError) as raised:
        read_suite(path)
    assert str(raised.value).startswith(f"{path}:2: malformed task line ({error}")


def test_a_tasks_line_holding_nan_is_refused(tmp_path):
    path = tmp_path / "tasks.jsonl"
    write_suite(generate_suite("boolean_logic", 1, seed=5), path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"slots": {', '"slots": {"x": NaN, '), encoding="utf-8")
    with pytest.raises(ConfigError, match=r":1: malformed task line \(ValueError: NaN is not"):
        read_suite(path)


def test_suite_file_round_trip(tmp_path):
    suite = []
    for family in FAMILIES:
        suite.extend(generate_suite(family, 3, seed=6))
    path = tmp_path / "tasks.jsonl"
    write_suite(suite, path)
    back = read_suite(path)
    assert back == suite
