"""Command-line interface.

Subcommands mirror the library surface: gen (task suites), run (execute a
config), derive-delayed (re-package unconstrained records), score (CSV
metrics), report (Markdown), validate (one-off output diagnosis).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, PairingError
from .harness import (
    DELAYED_SOURCE_MODES,
    SuiteConfig,
    config_from_dict,
    derive_delayed,
    load_records,
    run,
    score,
    score_to_files,
)
from .metrics import DEFAULT_BASELINE_MODE, DEFAULT_EPSILON, BootstrapConfig
from .modes import MODE_NAMES, parse_for_mode
from .records import write_records
from .report import render_report
from .taskgen import FAMILIES, generate_suite, read_suite, write_suite


def _add_bootstrap_args(parser: argparse.ArgumentParser) -> None:
    defaults = BootstrapConfig()
    parser.add_argument("--baseline", default=DEFAULT_BASELINE_MODE, choices=MODE_NAMES,
                        help="baseline mode for paired comparisons")
    parser.add_argument("--resamples", type=int, default=defaults.resamples,
                        help="bootstrap resample count")
    parser.add_argument("--level", type=float, default=defaults.level,
                        help="bootstrap confidence level")
    parser.add_argument("--bootstrap-seed", type=int, default=defaults.seed,
                        help="bootstrap seed")
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                        help="denominator floor for the normalized tax")


def _read(what: str, path: str, loader):
    try:
        return loader(path)
    except OSError as exc:  # missing or unreadable
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def _scored(args: argparse.Namespace):
    records = []
    for path in args.records:
        loaded = _read("records", path, load_records)
        if not loaded:
            raise ConfigError(f"no records in {path}")
        records.extend(loaded)
    cfg = BootstrapConfig(resamples=args.resamples, level=args.level,
                          seed=args.bootstrap_seed)
    return score(records, bootstrap=cfg, baseline_mode=args.baseline,
                 epsilon=args.epsilon)


def _cmd_gen(args: argparse.Namespace) -> int:
    families = tuple(args.family) if args.family else FAMILIES
    instances = []
    for family in families:
        instances.extend(generate_suite(family, args.count, args.seed))
    write_suite(instances, args.out)
    print(f"[INFO] wrote {len(instances)} instances "
          f"({len(families)} families x {args.count}) to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    config = config_from_dict(doc)
    run(config, args.out, resume=args.resume)
    return 0


def _cmd_derive_delayed(args: argparse.Namespace) -> int:
    records = _read("records", args.records, load_records)
    if args.source_mode:
        records = [r for r in records if r.mode == args.source_mode]
        if not records:
            raise ConfigError(f"no records with mode {args.source_mode!r} "
                              f"in {args.records}")
    else:
        modes = sorted({r.mode for r in records})
        if len(modes) > 1:
            raise ConfigError(
                f"records contain several modes ({', '.join(modes)}); "
                "pick one with --source-mode")
    instances = {i.id: i for i in _read("tasks", args.tasks, read_suite)}
    derived = derive_delayed(records, instances)
    write_records(args.out, derived)
    print(f"[INFO] derived {len(derived)} delayed-constraint records "
          f"from {len(records)} source records -> {args.out}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    result = _scored(args)
    paths = score_to_files(result, args.out)
    for name, path in sorted(paths.items()):
        print(f"[INFO] wrote {name}: {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    result = _scored(args)
    text = render_report(result, baseline_mode=args.baseline)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"[INFO] wrote report: {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.text is not None:
        text = args.text
    elif args.file is not None:
        text = Path(args.file).read_text(encoding="utf-8")
    else:
        text = sys.stdin.read()
    parse = parse_for_mode(text, args.mode, args.family, strict=args.strict_extraction)
    print(f"status: {parse.status}")
    print(f"valid: {parse.valid}")
    if parse.matched_text is not None:
        print(f"matched: {parse.matched_text}")
    if parse.value is not None:
        print(f"value: {json.dumps(parse.value, sort_keys=True)}")
    for violation in parse.violations:
        print(f"violation at {violation.path or '/'}: "
              f"[{violation.keyword}] {violation.message}")
    return 0 if parse.valid else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctax",
        description="Measure the semantic accuracy cost of structured-output "
                    "constraints on verifiable tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    suite = SuiteConfig()
    p_gen = sub.add_parser("gen", help="generate a task suite as JSONL")
    p_gen.add_argument("--family", action="append", choices=FAMILIES,
                       help="task family (repeatable; default: all)")
    p_gen.add_argument("--count", type=int, default=suite.count,
                       help="instances per family")
    p_gen.add_argument("--seed", type=int, default=suite.seed, help="suite seed")
    p_gen.add_argument("--out", required=True, help="output JSONL path")
    p_gen.set_defaults(func=_cmd_gen)

    p_run = sub.add_parser("run", help="execute a run config")
    p_run.add_argument("--config", required=True, help="run config JSON path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--resume", action="store_true",
                       help="skip records already on disk")
    p_run.set_defaults(func=_cmd_run)

    p_der = sub.add_parser(
        "derive-delayed",
        help="re-package unconstrained records under the delayed contract")
    p_der.add_argument("--records", required=True, help="source records JSONL")
    p_der.add_argument("--tasks", required=True, help="task suite JSONL")
    p_der.add_argument("--source-mode", choices=sorted(DELAYED_SOURCE_MODES),
                       help="pick this mode out of a mixed records file")
    p_der.add_argument("--out", required=True, help="derived records JSONL path")
    p_der.set_defaults(func=_cmd_derive_delayed)

    p_score = sub.add_parser("score", help="aggregate records into CSV metrics")
    p_score.add_argument("--records", action="append", required=True,
                         help="records JSONL (repeatable)")
    p_score.add_argument("--out", required=True, help="output directory for CSVs")
    _add_bootstrap_args(p_score)
    p_score.set_defaults(func=_cmd_score)

    p_rep = sub.add_parser("report", help="render a Markdown report")
    p_rep.add_argument("--records", action="append", required=True,
                       help="records JSONL (repeatable)")
    p_rep.add_argument("--out", required=True, help="report markdown path")
    _add_bootstrap_args(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    p_val = sub.add_parser("validate", help="diagnose one output text")
    p_val.add_argument("--mode", required=True, choices=MODE_NAMES)
    p_val.add_argument("--family", required=True, choices=FAMILIES)
    p_val.add_argument("--text", help="output text inline")
    p_val.add_argument("--file", help="read output text from this file")
    p_val.add_argument("--strict-extraction", action="store_true",
                       help="whole-text JSON parse only, no substring rescue")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PairingError) as exc:
        print(f"[ERROR] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
