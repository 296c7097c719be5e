"""Run one workload's ops in a closed loop and print the timings as one JSON line.

``run.py`` starts this script in a fresh interpreter per workload, with
PYTHONPATH leading to the checkout's ``src/`` and the BLAS thread count set:

    python3 benchmarks/worker.py WORKLOAD SEED SECONDS TRACE TINY WORKDIR SRC

One client sends one op after another through ``coinwalk.cli.main(argv)``,
each writing to its own file in WORKDIR.  After one untimed round, whole
rounds of the workload's ops run until SECONDS would be exceeded (at least
one round).  With TRACE=1
the first half of the time runs untraced and the second half traced, so the
difference is the tracing overhead.  Outputs are only hashed here; run.py
checks them after this process has ended, so the checks' memory stays out
of this process's peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, merge


def run_round(cli, ops, workdir: Path, tracer: Tracer | None = None) -> dict:
    """Run every op once, in order; time each ``main`` call alone."""
    records, layers = [], {}
    for index, op in enumerate(ops):
        path = workdir / f"op{index}.{op.fmt}"
        path.unlink(missing_ok=True)
        argv = [*op.argv, "--out", str(path)]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
        if tracer is not None:
            merge(layers, tracer.drain())
        ok = code == 0 and path.is_file()
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if ok else None
        records.append({"seconds": seconds, "code": code, "digest": digest})
    return {"ops": records, "layers": layers}


def run_rounds(cli, ops, workdir: Path, seconds: float, tracer: Tracer | None = None) -> list[dict]:
    """Whole rounds until another round of average length would pass ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, ops, workdir, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, tiny, workdir, src = argv
    import coinwalk.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"worker: imported coinwalk from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = Path(workdir)
    ops = workloads.build(name, int(seed), tiny=tiny == "1")
    # One untimed round first.  Besides lazy imports, it leaves malloc's
    # dynamic mmap threshold where every later round finds it: the first
    # round after start-up runs some walks up to 2x slower than the rest.
    run_round(cli, ops, workdir)
    if trace == "1":
        untraced = run_rounds(cli, ops, workdir, float(seconds) / 2)
        tracer = Tracer()
        tracer.install()
        traced = run_rounds(cli, ops, workdir, float(seconds) / 2, tracer)
    else:
        untraced, traced = run_rounds(cli, ops, workdir, float(seconds)), []
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"untraced": untraced, "traced": traced, "peak_rss_kb": peak_rss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
