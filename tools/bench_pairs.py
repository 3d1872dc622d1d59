"""Alternated benchmark pairs of two revisions.

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD \\
        --workload offline_corruptor --seed 1 --seed 7919 --seconds 10 --pairs 10

Exports each revision with `git archive` into its own temporary directory
(under $TMPDIR), then runs `perfbench/run.py --workload W --seed S --seconds N`
in each, --pairs times per side, alternating which side runs first. --seed
may be given more than once (default 1): each seed gets its own pairs, run
one seed after the other. To measure uncommitted work, `git add` it and pass
`--head "$(git stash create)"`.

For every seed, and every end-to-end metric of the base's BENCHMARK.json, it
prints each pair's values, the pairs the head won (ties count for neither
side), both medians with their quartiles, and two verdicts: whether the
head's gain meets the acceptance rule (it wins at least nine tenths of the
pairs, and the medians differ by more than the base's interquartile
spread), and whether the head's median is worse than the base's by more
than the metric's bound. The figures run.py prints by name beside them
(gap_to_ideal on the endpoint, wall_records_per_s, failed_share) get each
pair's values and both medians with their quartiles, with no verdict. Then
one verdict line per seed and metric, and last one JSON object holding
every value, by seed. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run.py's named figures that BENCHMARK.json does not declare, as it prints
# them: "  <name>  <value> <unit>"
NAMED = re.compile(r"^\s+(gap_to_ideal|wall_records_per_s|failed_share)\s+(\S+) ", re.M)


def export(revision: str, into: Path) -> str:
    """Unpack `git archive revision` into the directory; returns the
    revision's full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in the tree: its last stdout line, as JSON, with
    the named figures it printed under "named". A run that exits non-zero
    or prints no JSON line is a RuntimeError."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    run = json.loads(lines[-1])
    run["named"] = {name: float(value) for name, value in NAMED.findall(proc.stdout)}
    return run


def spread(values: list[float]) -> dict:
    """The median and quartiles of one side's values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "quartiles": [q1, q3]}


def summarize(metric: dict, base: list[float], head: list[float]) -> dict:
    """The figures and verdicts of one end-to-end metric over the pairs."""
    higher = metric["better"] == "higher"
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    losses = sum((h < b) if higher else (h > b) for b, h in zip(base, head))
    base_med, head_med = statistics.median(base), statistics.median(head)
    base_q1, _, base_q3 = statistics.quantiles(base, n=4)
    head_q1, _, head_q3 = statistics.quantiles(head, n=4)
    better_by = (head_med - base_med) if higher else (base_med - head_med)
    worse_share = -better_by / base_med if base_med else 0.0
    return {
        "base": base, "head": head, "wins": wins, "losses": losses,
        "base_median": base_med, "head_median": head_med,
        "base_quartiles": [base_q1, base_q3], "head_quartiles": [head_q1, head_q3],
        "base_iqr": base_q3 - base_q1,
        "ratio": head_med / base_med if base_med else None,
        "gain_met": wins >= 0.9 * len(base) and better_by > base_q3 - base_q1,
        "within_bound": worse_share <= metric["bound"],
    }


def run_pairs(trees: dict[str, Path], workload: str, seed: int, seconds: float,
              pairs: int, metrics: list[dict]) -> dict[str, list[dict]]:
    """The pairs of one seed: each side's runs, alternating which goes first."""
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for pair in range(pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(bench(trees[side], workload, seed, seconds))
        base, head = runs["base"][-1], runs["head"][-1]
        print(f"seed {seed} pair {pair + 1}/{pairs} ({order[0]} first): " + "; ".join(
            [f"{m['name']} {base['metrics'][m['name']]['value']:.4g} -> "
             f"{head['metrics'][m['name']]['value']:.4g}" for m in metrics]
            + [f"{name} {value:.4g} -> {head['named'][name]:.4g}"
               for name, value in base["named"].items() if name in head["named"]]),
            flush=True)
    return runs


def report(runs: dict[str, list[dict]], metrics: list[dict], pairs: int) -> dict:
    """Print one seed's figures and verdicts; returns them."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        figures = summary[name] = summarize(
            metric, *([run["metrics"][name]["value"] for run in runs[side]]
                      for side in ("base", "head")))
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:.0%})")
        print("  base: " + ", ".join(f"{v:.4g}" for v in figures["base"]))
        print("  head: " + ", ".join(f"{v:.4g}" for v in figures["head"]))
        print(f"  head better in {figures['wins']} of {pairs} pairs, "
              f"worse in {figures['losses']}")
        print(f"  median {figures['base_median']:.4g} "
              f"[{figures['base_quartiles'][0]:.4g}, {figures['base_quartiles'][1]:.4g}] -> "
              f"{figures['head_median']:.4g} "
              f"[{figures['head_quartiles'][0]:.4g}, {figures['head_quartiles'][1]:.4g}]"
              + (f", ratio {figures['ratio']:.3f}" if figures["ratio"] is not None else ""))
        print(f"  base interquartile spread {figures['base_iqr']:.4g}; {verdicts(figures)}")
    named = {}
    for name in runs["base"][0]["named"]:
        values = {side: [run["named"].get(name) for run in runs[side]] for side in runs}
        if None in values["base"] + values["head"]:
            continue  # not printed by every run
        named[name] = {side: {"values": values[side], **spread(values[side])}
                       for side in values}
        print(f"\n{name} (printed by run.py; no verdict)")
        for side in values:
            figures = named[name][side]
            print(f"  {side}: " + ", ".join(f"{v:.4g}" for v in figures["values"])
                  + f"; median {figures['median']:.4g} [{figures['quartiles'][0]:.4g}, "
                  f"{figures['quartiles'][1]:.4g}]")
    failed = {side: [run["failed"] for run in runs[side]] for side in runs}
    attempted = {side: [run["attempted"] for run in runs[side]] for side in runs}
    print(f"\nfailed/attempted: base {sum(failed['base'])}/{sum(attempted['base'])}, "
          f"head {sum(failed['head'])}/{sum(attempted['head'])}")
    return {"metrics": summary, "named": named, "failed": failed, "attempted": attempted}


def verdicts(figures: dict) -> str:
    return (f"gain {'MET' if figures['gain_met'] else 'not met'}; "
            f"{'within' if figures['within_bound'] else 'BEYOND'} the bound")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="alternated perfbench pairs of two revisions")
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--head", required=True, help="the revision measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, action="append",
                        help="a workload seed; repeat for several (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    seeds = list(dict.fromkeys(args.seed or [1]))
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"base": work / "base", "head": work / "head"}
        commits = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        metrics = json.loads((trees["base"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = {seed: run_pairs(trees, args.workload, seed, args.seconds, args.pairs, metrics)
                for seed in seeds}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    by_seed = {}
    for seed in seeds:
        print(f"\n{args.workload} seed={seed} seconds={args.seconds} pairs={args.pairs}")
        print(f"base {commits['base'][:12]}  head {commits['head'][:12]}")
        by_seed[seed] = report(runs[seed], metrics, args.pairs)
    print()
    for seed in seeds:
        for name, figures in by_seed[seed]["metrics"].items():
            print(f"seed {seed} {name}: {verdicts(figures)}")
    print(json.dumps({"workload": args.workload, "seeds": seeds, "seconds": args.seconds,
                      "commits": commits, "by_seed": by_seed}))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
