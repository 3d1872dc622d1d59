"""Command-line interface.

Subcommands mirror the library surface: gen (task suites), run (execute a
config), derive-delayed (re-package unconstrained records), score (CSV
metrics), report (Markdown), validate (one-off output diagnosis).

score also keeps the report and warnings of what it scored as a cache entry,
${XDG_CACHE_HOME:-~/.cache}/ctax/scores/<key>.json, keyed by the sha256 of
the ctax source, the level, the baseline and each records file's bytes as
folded. report serves only an entry whose key matches exactly and scores
the records itself on any miss (a pipe among them, an entry absent or torn,
a directory not the user's). score always rewrites its entry; the newest 16
are kept, and deleting the directory is always safe.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import stat
import sys
from pathlib import Path

from .errors import ConfigError, PairingError
from .harness import (
    DELAYED_SOURCE_MODES,
    Cells,
    SuiteConfig,
    config_from_dict,
    derive_delayed,
    run,
    score,
    score_to_files,
)
from .metrics import DEFAULT_BASELINE_MODE, BootstrapConfig
from .modes import MODE_NAMES, parse_for_mode
from .records import read_records, replace_file, write_records
from .report import render_report
from .taskgen import FAMILIES, generate_suite, read_suite, write_suite
from .validation import unique_keys


def _add_bootstrap_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--baseline", default=DEFAULT_BASELINE_MODE, choices=MODE_NAMES,
                        help="baseline mode for paired comparisons")
    parser.add_argument("--level", type=float, default=BootstrapConfig().level,
                        help="bootstrap confidence level")


def _read(what: str, path: str, loader):
    try:
        return loader(path)
    except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable or not UTF-8
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def _write(what: str, path: str, writer):
    try:
        return writer(path)
    except OSError as exc:  # a directory where a file goes, a file where a directory goes
        raise ConfigError(f"cannot write {what} {path}: {exc}") from None


def _scored(args: argparse.Namespace, digests: list | None = None):
    """The records scored, their warnings printed. With a digests list,
    each file's sha256 over the bytes folded is appended to it, or None for
    a file that is not a regular one."""
    bootstrap = BootstrapConfig(level=args.level)  # refused before any file is read
    cells = Cells()  # each file read once, each line folded into its cell and let go
    for path in args.records:
        digest = None if digests is None else hashlib.sha256()
        if not _read("records", path, lambda p: cells.read(p, digest)):
            raise ConfigError(f"no records in {path}")
        if digests is not None:
            digests.append(digest.hexdigest() if Path(path).is_file() else None)
    result = score(cells, bootstrap=bootstrap, baseline_mode=args.baseline)
    for warning in result.warnings:
        print(f"[WARN] {warning}")
    return result


_CACHE_FORMAT = "ctax-score-cache/1"
_CACHE_KEEP = 16  # entries kept, the newest


def _cache_path(args: argparse.Namespace, digests: list[str | None]) -> Path | None:
    """The entry of these records files (their sha256s, in argument order),
    level, baseline and ctax source; None with no cache directory or a
    file that is not a regular one."""
    home = os.environ.get("HOME")
    base = os.environ.get("XDG_CACHE_HOME") or (home and Path(home) / ".cache")
    if not base or None in digests:
        return None
    doc = [_CACHE_FORMAT, _code_digest(), repr(args.level), args.baseline, digests]
    key = hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()
    return Path(base) / "ctax" / "scores" / f"{key}.json"


def _code_digest() -> list[str]:
    """Each ctax source file's name and sha256: an edited scorer is a miss."""
    return [f"{path.name}:{hashlib.sha256(path.read_bytes()).hexdigest()}"
            for path in sorted(Path(__file__).parent.glob("*.py"))]


def _file_digest(path: str) -> str | None:
    """The sha256 of a regular file, read in chunks (3.10 has no
    hashlib.file_digest); None for a pipe, which a read would drain."""
    if not Path(path).is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _usable(directory: Path) -> bool:
    """A directory of this user's, writable: another user's could plant an entry."""
    st = os.lstat(directory)
    return (stat.S_ISDIR(st.st_mode) and os.access(directory, os.W_OK)
            and (not hasattr(os, "getuid") or st.st_uid == os.getuid()))


def _store_report(args: argparse.Namespace, digests: list[str | None], result) -> None:
    """Keep the report of result, and its warnings, as the entry report
    serves: written whole to a sibling of its own, then renamed over the
    entry. A failure leaves no entry or the old one, never an error."""
    path = _cache_path(args, digests)
    if path is None:
        return
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _usable(path.parent):
            return
        partial = path.with_name(f".{path.stem}.{os.getpid()}.partial")
        try:
            with open(partial, "x", encoding="utf-8") as fh:
                json.dump({"key": path.stem, "warnings": list(result.warnings),
                           "report": render_report(result, baseline_mode=args.baseline)}, fh)
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)
        entries = sorted(path.parent.glob("*.json"), key=lambda p: p.stat().st_mtime_ns)
        for old in entries[:-_CACHE_KEEP]:
            old.unlink(missing_ok=True)
    except OSError:
        pass


def _cached_report(args: argparse.Namespace) -> dict | None:
    """The entry score kept for args; None on any miss."""
    try:
        path = _cache_path(args, [_file_digest(records) for records in args.records])
        entry = json.loads(path.read_text(encoding="utf-8")) \
            if path is not None and _usable(path.parent) else None
    except (OSError, ValueError, RecursionError):  # absent, unreadable, torn, not JSON
        return None
    if (type(entry) is dict and entry.get("key") == path.stem
            and type(entry.get("report")) is str and type(entry.get("warnings")) is list
            and all(type(warning) is str for warning in entry["warnings"])):
        return entry
    return None


def _cmd_gen(args: argparse.Namespace) -> int:
    families = tuple(args.family) if args.family else FAMILIES
    instances = []
    for family in families:
        instances.extend(generate_suite(family, args.count, args.seed))
    _write("tasks", args.out, lambda out: write_suite(instances, out))
    print(f"[INFO] wrote {len(instances)} instances "
          f"({len(families)} families x {args.count}) to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"),
                         object_pairs_hook=unique_keys)
    # unreadable, not JSON, a key given twice, or nested too deeply to decode
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    config = config_from_dict(doc)
    records = _write("run directory", args.out, lambda out: run(config, out, resume=args.resume))
    print(f"[INFO] run complete: {records}")
    return 0


def _cmd_derive_delayed(args: argparse.Namespace) -> int:
    records = _read("records", args.records, read_records)
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
    _write("records", args.out, lambda out: write_records(out, derived))
    print(f"[INFO] derived {len(derived)} delayed-constraint records "
          f"from {len(records)} source records -> {args.out}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    digests: list[str | None] = []
    result = _scored(args, digests)
    paths = _write("scores directory", args.out, lambda out: score_to_files(result, out))
    for name, path in sorted(paths.items()):
        print(f"[INFO] wrote {name}: {path}")
    _store_report(args, digests, result)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    BootstrapConfig(level=args.level)  # a bad level is refused before any file is read
    entry = _cached_report(args)
    if entry is None:
        text = render_report(_scored(args), baseline_mode=args.baseline)
    else:
        for warning in entry["warnings"]:
            print(f"[WARN] {warning}")
        text = entry["report"]
    _write("report", args.out, lambda out: replace_file(out, [text]))
    print(f"[INFO] wrote report: {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.text is not None:
        text = args.text
    elif args.file is not None:
        text = _read("output", args.file, lambda path: Path(path).read_text(encoding="utf-8"))
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
    given = p_val.add_mutually_exclusive_group()  # neither: standard input
    given.add_argument("--text", help="output text inline")
    given.add_argument("--file", help="read output text from this file")
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
