"""Self-check of the benchmark at tiny sizes; shows its checks are not vacuous.

Run from the root of a checkout (about 10 s):

    python3 benchmarks/selfcheck.py

It checks that the reference matches its closed forms, that every workload
completes with 0 failed ops and correct outputs through the same worker path
as a real run, traced and untraced, that a walk probability perturbed by
1e-9 is caught, and that ``verify --corrupt-coin`` counts as one failed op.
Exit code 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads
import checks
import reference
import workloads
from worker import run_round


def perturbed_walk_is_caught() -> bool:
    op = workloads.Op("walk", "csv", 40, workloads.generic_coin(7))
    workdir = run.HERE / ".work" / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    import coinwalk.cli as cli

    run_round(cli, [op], workdir)
    path = workdir / f"op0.{op.fmt}"
    checks.check(op, path)  # the unperturbed output passes
    clean = path.read_text(encoding="utf-8").splitlines()
    caught = []
    # Lines 41 and 43 hold positions 0 and 2: one site raised by 1e-9, then
    # 1e-9 moved between two sites so that the total stays 1.
    for moves in ({41: 1e-9}, {41: 1e-9, 43: -1e-9}):
        lines = list(clean)
        for line, delta in moves.items():
            x, p = lines[line].split(",")
            lines[line] = f"{x},{float(p) + delta!r}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            checks.check(op, path)
        except checks.CheckError as exc:
            print(f"  perturbation {moves} caught: {exc}")
            caught.append(True)
        else:
            caught.append(False)
    return all(caught)


def corrupt_coin_counts_as_failed() -> bool:
    import coinwalk.cli as cli

    ops = [
        workloads.Op("verify", "json", 6, workloads.HADAMARD),
        workloads.Op("verify", "json", 6, workloads.HADAMARD, corrupt=True),
    ]
    workdir = run.HERE / ".work" / "selfcheck"
    attempted, failed, problems = run.assess(ops, [run_round(cli, ops, workdir)], workdir)
    print(f"  verify --corrupt-coin: {attempted} attempted, {failed} failed, problems {problems}")
    return (attempted, failed, problems) == (2, 1, [])


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    reference.self_check()
    print("reference closed forms: ok")
    ok = True
    for name in workloads.NAMES:
        for trace in (False, True):
            res = run.run_workload(root, name, seed=1, seconds=0, trace=trace, tiny=True)
            good = res["correct"] and res["failed"] == 0
            ok &= good
            print(f"{name} trace={int(trace)}: {res['attempted']} attempted, {res['failed']} failed, "
                  f"correct={res['correct']} {'ok' if good else 'FAIL'} {res['problems'] or ''}")
    for what, test in (("perturbation", perturbed_walk_is_caught),
                       ("corrupt coin", corrupt_coin_counts_as_failed)):
        good = test()
        ok &= good
        print(f"{what}: {'ok' if good else 'FAIL'}")
    print("self-check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
