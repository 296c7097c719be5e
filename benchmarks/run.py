"""coinwalk benchmark: CLI workloads timed end to end, or traced layer by layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload long-walk --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the environment and print every
metric by name and unit.  Exit code 0 when every output checked correct,
1 when one did not, 2 when the benchmark could not run (for instance with
no ``src/coinwalk`` beside it).  See benchmarks/README.md.
"""

from __future__ import annotations

import os

#: BLAS threads of every process the benchmark starts: one, for steady timings
#: on a shared two-core machine.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import merge  # noqa: E402

HERE = Path(__file__).resolve().parent
#: Fresh interpreters timed for ``setup_s``; one more runs first, untimed,
#: because only the first start after a checkout compiles bytecode.
SETUP_SAMPLES = 11
#: A run must end within 180 s; the worker gets what is left of this.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "site_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "coin.calls": "count",
    "coin.self_s": "s",
    "state.walker_states": "count",
    "state.self_s": "s",
    "evolution.self_s": "s",
    "evolution.ns_per_site_step": "ns",
    "evolution.step_calls": "count",
    "dense.operators_built": "count",
    "dense.matvecs": "count",
    "dense.build_s": "s",
    "dense.self_s": "s",
    "dense.operator_mb": "MB",
    "analysis.walks": "count",
    "analysis.self_s": "s",
    "entanglement.spectra_per_step": "1/step",
    "entanglement.self_s": "s",
    "cli.self_s": "s",
    "cli.ns_per_byte": "ns/B",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark could not run to the end; no result is printed."""


def environment(src: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py")),
    }


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def measure_setup(src: Path, workdir: Path) -> float:
    """Median wall time of a fresh interpreter importing the CLI and running a 1-step walk."""
    op = workloads.Op("walk", "csv", 1, workloads.HADAMARD)
    path = workdir / "setup.csv"
    code = "import sys\nfrom coinwalk.cli import main\nsys.exit(main(sys.argv[1:]))"
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        path.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *op.argv, "--out", str(path)],
                                env=child_env(src), stdin=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantise the samples.  The timer only guards a hang.
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up call exited with {proc.returncode}")
        checks.check(op, path)
    return statistics.median(samples[1:])


def start_worker(src: Path, workdir: Path, name: str, seed: int, seconds: float,
                 trace: bool, tiny: bool, timeout: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(seconds),
            str(int(trace)), str(int(tiny)), str(workdir), str(src)]
    try:
        proc = subprocess.run(argv, env=child_env(src), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker for {name} passed its {timeout:.0f} s limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker for {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assess(ops: list, rounds: list[dict], workdir: Path) -> tuple[int, int, list[str]]:
    """Count attempted and failed ops and check every output that did not fail.

    Each op's file from the last round is checked in full; the other rounds
    must have written the same bytes, since the CLI's output is deterministic.
    """
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(rec["code"] != 0 for r in rounds for rec in r["ops"])
    problems = []
    for index, op in enumerate(ops):
        records = [r["ops"][index] for r in rounds]
        passed = [rec for rec in records if rec["code"] == 0]
        if not passed:
            continue
        label = " ".join(op.argv)
        if len(passed) != len(records):
            problems.append(f"{label}: failed in some rounds only")
        elif len({rec["digest"] for rec in passed}) != 1:
            problems.append(f"{label}: output differs between rounds")
        else:
            try:
                checks.check(op, workdir / f"op{index}.{op.fmt}")
            except checks.CheckError as exc:
                problems.append(f"{label}: {exc}")
    return attempted, failed, problems


def end_to_end(ops: list, rounds: list[dict], setup_s: float, peak_rss_kb: int) -> dict:
    op_seconds = [rec["seconds"] for r in rounds for rec in r["ops"] if rec["code"] == 0]
    throughput = [
        sum(op.site_steps for op, rec in zip(ops, r["ops"]) if rec["code"] == 0)
        / sum(rec["seconds"] for rec in r["ops"])
        for r in rounds
    ]
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(op_seconds),
        "site_steps_per_s": statistics.median(throughput),
        "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
    }


def per_layer(ops: list, untraced: list[dict], traced: list[dict], workdir: Path) -> dict:
    """Per-round layer figures from the traced rounds, plus the tracing overhead."""
    n = len(traced)
    totals: dict = {}
    for r in traced:
        merge(totals, r["layers"])

    def per_round(key: str) -> float:
        return totals.get(key, 0) / n

    site_steps = sum(op.site_steps for op in ops)
    outputs = [workdir / f"op{i}.{op.fmt}" for i, op in enumerate(ops)]
    out_bytes = sum(path.stat().st_size for path in outputs if path.is_file())
    series_rows = sum(op.steps + 1 for op in ops if op.command == "entanglement")
    half_width = totals.get("dense_max_half_width", 0)
    wall = [statistics.median(sum(rec["seconds"] for rec in r["ops"]) for r in phase)
            for phase in (untraced, traced)]
    return {
        "coin.calls": per_round("calls.coin"),
        "coin.self_s": per_round("self_s.coin"),
        "state.walker_states": per_round("spans.WalkerState"),
        "state.self_s": per_round("self_s.state"),
        "evolution.self_s": per_round("self_s.evolution"),
        "evolution.ns_per_site_step": per_round("self_s.evolution") / site_steps * 1e9,
        "evolution.step_calls": per_round("spans.step_recurrence"),
        "dense.operators_built": per_round("spans.build_step_unitary"),
        "dense.matvecs": per_round("dense_matvecs"),
        "dense.build_s": per_round("dense_build_s"),
        "dense.self_s": per_round("self_s.dense"),
        "dense.operator_mb": (4 * half_width + 2) ** 2 * 16 / 1e6 if half_width else 0.0,
        "analysis.walks": per_round("analysis_walks"),
        "analysis.self_s": per_round("self_s.analysis"),
        "entanglement.spectra_per_step":
            per_round("spans.schmidt_spectrum") / series_rows if series_rows else 0.0,
        "entanglement.self_s": per_round("self_s.entanglement"),
        "cli.self_s": per_round("self_s.cli"),
        "cli.ns_per_byte": per_round("self_s.cli") / out_bytes * 1e9 if out_bytes else 0.0,
        "trace.overhead_s": wall[1] - wall[0],
    }


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one workload in a fresh worker process, check it and compute its metrics."""
    started = time.perf_counter()
    src = root / "src"
    workdir = HERE / ".work" / name
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s = None if trace else measure_setup(src, workdir)
    result = start_worker(src, workdir, name, seed, seconds, trace, tiny,
                          timeout=DEADLINE_S - (time.perf_counter() - started))
    ops = workloads.build(name, seed, tiny)
    untraced, traced = result["untraced"], result["traced"]
    attempted, failed, problems = assess(ops, untraced + traced, workdir)
    if trace:
        metrics = per_layer(ops, untraced, traced, workdir)
        units = PER_LAYER
    else:
        metrics = end_to_end(ops, untraced, setup_s, result["peak_rss_kb"])
        units = END_TO_END
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "coinwalk" / "cli.py").is_file():
        print(f"benchmark: no coinwalk sources at {src / 'coinwalk'}; run from a checkout root",
              file=sys.stderr)
        return 2
    reference.self_check()
    print("env:", json.dumps(environment(src)))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            res = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except (BenchmarkError, checks.CheckError) as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 2
        results[name] = res
        print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}: "
              f"{res['attempted']} ops attempted, {res['failed']} failed, "
              f"outputs {'correct' if res['correct'] else 'WRONG'}")
        for key, metric in res["metrics"].items():
            print(f"  {key:<32} {metric['value']:>16.6g} {metric['unit']}")
        for problem in res["problems"]:
            print(f"  problem: {problem}", file=sys.stderr)

    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{name}.{key}": m for name, res in results.items() for key, m in res["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
