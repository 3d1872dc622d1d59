"""One fresh process of a benchmark workload.

    python3 perfbench/worker.py SPEC.json

SPEC.json (written by run.py) holds:
  root     checkout root; ``<root>/src`` goes first on sys.path
  kind     "setup": import ctax and do what ``ctax`` does before its first
           record-producing call (parse the config, generate the suite,
           health-check endpoints), then exit;
           "work": call ``ctax.cli.main`` once per entry of ``argvs``
  config   run config path (setup of a run workload)
  argvs    list of ctax argument lists
  trace    1 to install the span wrappers (work only)
  spans    where a traced process writes its spans
  run_id   run id stamped on the spans

The last stdout line is one JSON object with perf_counter marks (the clock
is CLOCK_MONOTONIC, shared by all processes): the end of set-up, or the
start and wall time of each ctax command and their sum, then the process's
peak RSS and, when traced, the per-layer summary.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import ctax.cli

    out: dict = {}
    if spec["kind"] == "setup":
        if spec.get("config"):
            from ctax.backend import check_health
            from ctax.harness import config_from_dict
            from ctax.taskgen import generate_suite

            doc = json.loads(Path(spec["config"]).read_text(encoding="utf-8"))
            config = config_from_dict(doc)
            for family in config.suite.families:
                generate_suite(family, config.suite.count, config.suite.seed)
            for backend in config.backends:
                if backend.kind == "endpoint":
                    check_health(backend)
        else:
            ctax.cli.build_parser().parse_args(spec["argvs"][0])
        out["setup_done"] = time.perf_counter()
    else:
        tracer = None
        if spec.get("trace"):
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from spans import Tracer

            tracer = Tracer(spec["run_id"])
            tracer.install()
        out["starts_s"], out["walls_s"] = [], []
        for argv in spec["argvs"]:
            start = time.perf_counter()
            code = ctax.cli.main(argv)
            out["walls_s"].append(time.perf_counter() - start)
            out["starts_s"].append(start)
            if code != 0:
                print(f"ctax {argv[0]} exited with {code}", file=sys.stderr)
                return 1
        out["wall_s"] = sum(out["walls_s"])
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.write(spec["spans"])
            out["layers"] = tracer.summary()
            out["items"] = tracer.items
            out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
