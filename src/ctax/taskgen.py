"""Deterministic task families with exact ground truth.

Every instance is fully determined by (family, index, seed): the slot
values, the problem text, the gold reasoning trace, and the final answer
all come from a per-instance SplitMix64 substream, so a suite regenerates
byte-identically on any platform. Ground-truth strings are stored
pre-normalized (trimmed, lowercased).
"""

from __future__ import annotations

import datetime as dt
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, NamedTuple

from .errors import ConfigError
from .records import iter_jsonl, write_jsonl
from .rng import SplitMix64, derive_seed
from .validation import canonical_serialize, normalize_answer

# The family whose answer is a calendar tool call, scored field by field.
CALENDAR_FAMILY = "tool_call_argument"

FAMILIES = (
    "arithmetic_two_step",
    "symbolic_string",
    "object_tracking",
    "boolean_logic",
    CALENDAR_FAMILY,
)

TRACE_OPS: dict[str, tuple[str, ...]] = {
    "arithmetic_two_step": ("initial_total", "add_red", "remove_blue", "final_total"),
    "symbolic_string": ("last_letter", "concatenate"),
    "object_tracking": ("initial_state", "swap", "holder_of_key"),
    "boolean_logic": ("not", "and", "or"),
    CALENDAR_FAMILY: ("select_tool", "resolve_date", "resolve_time", "build_arguments"),
}

TOOL_NAME = "create_calendar_event"
TOOL_SIGNATURE = f"{TOOL_NAME}(title, date, start_time, duration_minutes, attendee, topic)"

# Semantic argument fields scored by the executable checker; title is
# required for validity but never scored.
CALENDAR_SEMANTIC_FIELDS = ("date", "start_time", "duration_minutes", "attendee", "topic")

WORDS = (
    "apple", "arrow", "badge", "basil", "beach", "berry", "blaze", "bloom",
    "brick", "brook", "candle", "cedar", "chair", "chalk", "cherry", "cliff",
    "cloud", "coral", "crane", "creek", "daisy", "delta", "drift", "eagle",
    "ember", "fable", "fern", "flint", "frost", "garden", "glove", "grape",
    "grove", "harbor", "hazel", "heron", "honey", "island", "ivory", "jade",
    "lagoon", "lantern", "lemon", "linen", "maple", "marble", "meadow", "mirror",
    "needle", "ocean", "olive", "orchard", "otter", "pearl", "pebble", "pine",
    "plank", "quartz", "raven", "ridge", "river", "saddle", "spruce", "tiger",
)

NAMES = ("Ann", "Bob", "Carol", "Dan", "Eve", "Frank",
         "Grace", "Henry", "Iris", "Jack", "Kate", "Leo")

ITEMS = ("key", "ball", "pen", "book", "cup", "map", "coin", "torch")

TOPICS = ("roadmap", "budget review", "hiring plan", "launch checklist",
          "design review", "quarterly goals", "incident postmortem", "sales pipeline")

DURATIONS = (15, 30, 45, 60, 90)

WEEKDAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")

# Relative-date vocabulary. "next <weekday>" resolves to the first strictly
# future occurrence of that weekday.
RELATIVE_DATE_PHRASES = (
    ("today", "tomorrow")
    + tuple(f"in {n} days" for n in range(2, 7))
    + tuple(f"next {w.capitalize()}" for w in WEEKDAYS)
)


class TraceStep(NamedTuple):
    op_name: str
    inputs: tuple[str, ...]
    output: str


class GroundTruth(NamedTuple):
    final_answer: str
    trace: tuple[TraceStep, ...]
    exec_target: dict[str, Any] | None = None


@dataclass(frozen=True)
class TaskInstance:
    id: str
    family: str
    problem_text: str
    # Compared but not hashed: slots is a dict. An instance edited under the
    # same id hashes the same and compares unequal.
    slots: dict[str, Any] = field(hash=False)
    ground_truth: GroundTruth = field(hash=False)


def resolve_relative_date(today: dt.date, phrase: str) -> dt.date:
    """Map a relative-date phrase onto a concrete date."""
    p = phrase.strip().lower()
    if p == "today":
        return today
    if p == "tomorrow":
        return today + dt.timedelta(days=1)
    if p.startswith("in ") and p.endswith(" days"):
        n = int(p[len("in "):-len(" days")])
        if not 2 <= n <= 6:
            raise ValueError(f"relative-date offset out of vocabulary: {phrase!r}")
        return today + dt.timedelta(days=n)
    if p.startswith("next "):
        weekday = p[len("next "):]
        if weekday not in WEEKDAYS:
            raise ValueError(f"unknown weekday in phrase: {phrase!r}")
        target = WEEKDAYS.index(weekday)
        ahead = (target - today.weekday() - 1) % 7 + 1
        return today + dt.timedelta(days=ahead)
    raise ValueError(f"relative-date phrase outside vocabulary: {phrase!r}")


# ---------------------------------------------------------------------------
# Slot generation
# ---------------------------------------------------------------------------

def _gen_slots(family: str, rng: SplitMix64) -> dict[str, Any]:
    if family == "arithmetic_two_step":
        r = rng.randint(2, 20)
        b = rng.randint(2, 20)
        a = rng.randint(1, 9)
        # removals never exceed the blue balls present
        m = rng.randint(1, min(9, b - 1))
        return {"r": r, "b": b, "a": a, "m": m}
    if family == "symbolic_string":
        k = rng.randint(3, 6)
        return {"words": rng.sample(WORDS, k)}
    if family == "object_tracking":
        p1, p2, p3 = rng.sample(NAMES, 3)
        i2, i3 = rng.sample([it for it in ITEMS if it != "key"], 2)
        return {"p1": p1, "p2": p2, "p3": p3, "i2": i2, "i3": i3}
    if family == "boolean_logic":
        return {"a": rng.random() < 0.5, "b": rng.random() < 0.5}
    # CALENDAR_FAMILY, the one left: generate_suite refuses any other
    today = dt.date(2025, 1, 1) + dt.timedelta(days=rng.randrange(364))
    minutes = rng.choice(range(8 * 60, 18 * 60 + 1, 15))
    return {
        "today": today.isoformat(),
        "duration_minutes": rng.choice(DURATIONS),
        "attendee": rng.choice(NAMES),
        "date_phrase": rng.choice(RELATIVE_DATE_PHRASES),
        "start_time": f"{minutes // 60:02d}:{minutes % 60:02d}",
        "topic": rng.choice(TOPICS),
    }


# ---------------------------------------------------------------------------
# Problem templates (fixed English, slots substituted verbatim)
# ---------------------------------------------------------------------------

def _problem_text(family: str, slots: dict[str, Any]) -> str:
    if family == "arithmetic_two_step":
        return (
            f"A box has {slots['r']} red balls and {slots['b']} blue balls. "
            f"Sam adds {slots['a']} red balls and removes {slots['m']} blue balls. "
            f"How many balls are in the box now?"
        )
    if family == "symbolic_string":
        listed = ", ".join(slots["words"])
        return f"Take the last letter of each word: {listed}. Concatenate them."
    if family == "object_tracking":
        return (
            f"{slots['p1']} has the key. {slots['p2']} has the {slots['i2']}. "
            f"{slots['p3']} has the {slots['i3']}. "
            f"{slots['p1']} and {slots['p2']} swap items. "
            f"{slots['p2']} and {slots['p3']} swap items. Who has the key?"
        )
    if family == "boolean_logic":
        a = "true" if slots["a"] else "false"
        b = "true" if slots["b"] else "false"
        return (
            f"A is {a}. B is {b}. C = A AND NOT B. D = C OR B. What is D?"
        )
    # CALENDAR_FAMILY, the one left: generate_suite refuses any other
    return (
        f"Assume today is {slots['today']}. "
        f"User request: Schedule a {slots['duration_minutes']} minute meeting "
        f"with {slots['attendee']} {slots['date_phrase']} at {slots['start_time']} "
        f"about {slots['topic']}. "
        f"Available tools: {TOOL_SIGNATURE}. "
        f"Return the selected tool and arguments. Do not access a real calendar."
    )


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------

def solve(family: str, slots: dict[str, Any]) -> GroundTruth:
    """Exact solution and gold trace for one instance's slots."""
    if family == "arithmetic_two_step":
        r, b, a, m = slots["r"], slots["b"], slots["a"], slots["m"]
        initial = r + b
        added = initial + a
        removed = added - m
        trace = (
            TraceStep("initial_total", (str(r), str(b)), str(initial)),
            TraceStep("add_red", (str(initial), str(a)), str(added)),
            TraceStep("remove_blue", (str(added), str(m)), str(removed)),
            TraceStep("final_total", (str(removed),), str(removed)),
        )
        return GroundTruth(final_answer=str(removed), trace=trace)

    if family == "symbolic_string":
        words = [w.lower() for w in slots["words"]]
        letters = [w[-1] for w in words]
        steps = [TraceStep("last_letter", (w,), w[-1]) for w in words]
        answer = "".join(letters)
        steps.append(TraceStep("concatenate", tuple(letters), answer))
        return GroundTruth(final_answer=answer, trace=tuple(steps))

    if family == "object_tracking":
        p1, p2, p3 = slots["p1"], slots["p2"], slots["p3"]
        holdings = {p1: "key", p2: slots["i2"], p3: slots["i3"]}

        def state() -> str:
            return ",".join(f"{normalize_answer(p)}:{holdings[p]}" for p in (p1, p2, p3))

        steps = [TraceStep("initial_state", (), state())]
        for left, right in ((p1, p2), (p2, p3)):
            holdings[left], holdings[right] = holdings[right], holdings[left]
            steps.append(TraceStep("swap", (normalize_answer(left), normalize_answer(right)), state()))
        holder = next(p for p, item in holdings.items() if item == "key")
        answer = normalize_answer(holder)
        steps.append(TraceStep("holder_of_key", ("key",), answer))
        return GroundTruth(final_answer=answer, trace=tuple(steps))

    if family == "boolean_logic":
        a, b = bool(slots["a"]), bool(slots["b"])
        not_b = not b
        c = a and not_b
        d = c or b

        def s(x: bool) -> str:
            return "true" if x else "false"

        trace = (
            TraceStep("not", (s(b),), s(not_b)),
            TraceStep("and", (s(a), s(not_b)), s(c)),
            TraceStep("or", (s(c), s(b)), s(d)),
        )
        return GroundTruth(final_answer=s(d), trace=trace)

    if family == CALENDAR_FAMILY:
        today = dt.date.fromisoformat(slots["today"])
        resolved = resolve_relative_date(today, slots["date_phrase"])
        attendee = normalize_answer(slots["attendee"])
        topic = normalize_answer(slots["topic"])
        arguments = {
            "attendee": attendee,
            "date": resolved.isoformat(),
            "duration_minutes": int(slots["duration_minutes"]),
            "start_time": slots["start_time"],
            "title": f"meeting about {topic}",
            "topic": topic,
        }
        exec_target = {"arguments": arguments, "tool": TOOL_NAME}
        answer = canonical_serialize(exec_target)
        trace = (
            TraceStep("select_tool", (), TOOL_NAME),
            TraceStep("resolve_date", (slots["today"], slots["date_phrase"]), resolved.isoformat()),
            TraceStep("resolve_time", (slots["start_time"],), slots["start_time"]),
            TraceStep("build_arguments", (), answer),
        )
        return GroundTruth(final_answer=answer, trace=trace, exec_target=exec_target)

    raise ConfigError(f"unknown task family: {family!r}")


def _suite_digest(seed: int) -> str:
    return hashlib.sha256(str(seed).encode("utf-8")).hexdigest()[:8]


def generate_suite(family: str, count: int, seed: int) -> list[TaskInstance]:
    """Regenerable suite of `count` instances for one family.

    Instance ids look like "boolean_logic-00042-1a2b3c4d": family, 5-digit
    index, 8-hex digest of the suite seed.
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown task family: {family!r}")
    if count < 1:
        raise ConfigError(f"suite count must be >= 1, got {count}")
    digest = _suite_digest(seed)
    instances = []
    for index in range(count):
        rng = SplitMix64(derive_seed(seed, family, index))
        slots = _gen_slots(family, rng)
        instances.append(TaskInstance(
            id=f"{family}-{index:05d}-{digest}",
            family=family,
            problem_text=_problem_text(family, slots),
            slots=slots,
            ground_truth=solve(family, slots),
        ))
    return instances


# ---------------------------------------------------------------------------
# Suite serialization (JSONL, one instance per line)
# ---------------------------------------------------------------------------

def instance_to_dict(instance: TaskInstance) -> dict[str, Any]:
    return {
        "id": instance.id,
        "family": instance.family,
        "problem_text": instance.problem_text,
        "slots": instance.slots,
        "ground_truth": {
            "answer": instance.ground_truth.final_answer,
            "trace": [
                {"op": s.op_name, "inputs": list(s.inputs), "output": s.output}
                for s in instance.ground_truth.trace
            ],
            "exec_target": instance.ground_truth.exec_target,
        },
    }


def _string(value: Any, name: str) -> str:
    if type(value) is not str:
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


def instance_from_dict(doc: dict[str, Any]) -> TaskInstance:
    """A task instance from its tasks line. A line is outside input, and the
    checkers compare strings, so a missing key is a KeyError, and a family
    outside FAMILIES (ValueError), an id, problem_text, answer, or trace
    step op or output that is not a string, or an exec_target that is
    neither an object nor null (TypeError) is refused. An edited ground
    truth of the right types is taken as it stands."""
    gt = doc["ground_truth"]
    trace = tuple(
        TraceStep(_string(s["op"], "trace op"), tuple(s["inputs"]),
                  _string(s["output"], "trace output"))
        for s in gt["trace"]
    )
    family = doc["family"]
    if family not in FAMILIES:
        raise ValueError(f"unknown task family: {family!r}")
    exec_target = gt.get("exec_target")
    if exec_target is not None and type(exec_target) is not dict:
        raise TypeError(f"exec_target must be an object or null, got {exec_target!r}")
    return TaskInstance(
        id=_string(doc["id"], "id"),
        family=family,
        problem_text=_string(doc["problem_text"], "problem_text"),
        slots=doc["slots"],
        ground_truth=GroundTruth(_string(gt["answer"], "answer"), trace, exec_target),
    )


def write_suite(instances: Iterable[TaskInstance], path: str | Path) -> None:
    write_jsonl(path, map(instance_to_dict, instances))


def read_suite(path: str | Path) -> list[TaskInstance]:
    return list(iter_jsonl(path, "task", instance_from_dict))
