"""Re-measure the ROADMAP baseline table once, as reference figures (not gated).

Run from the root of a checkout (about 90 s, most of it in the two largest rows):

    python3 benchmarks/baseline.py

Each row runs once in a fresh interpreter with one BLAS thread, timing only
the call itself, so the figures are single noisy samples.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread count

LIBRARY = (
    "from coinwalk import run_walk, named_coin, phase_diagram, UNBIASED_INIT\n"
    "import numpy as np\n"
)
ROWS = [
    ("run_walk, 1000 steps", "run_walk(named_coin('hadamard'), *UNBIASED_INIT, 1000)"),
    ("run_walk, 5000 steps", "run_walk(named_coin('hadamard'), *UNBIASED_INIT, 5000)"),
    ("run_walk, 20000 steps", "run_walk(named_coin('hadamard'), *UNBIASED_INIT, 20000)"),
    ("phase_diagram, 36x36 grid, t=200",
     "g = np.radians(np.arange(36) * 5.0); phase_diagram(np.pi / 4, g, g, *UNBIASED_INIT, 200)"),
    ("CLI walk --steps 2000", "main(['walk', '--coin', 'hadamard', '--steps', '2000', '--out', OUT])"),
    ("CLI entanglement --steps 2000",
     "main(['entanglement', '--coin', 'hadamard', '--steps', '2000', '--out', OUT])"),
    ("CLI verify --max-steps 50", "main(['verify', '--coin', 'hadamard', '--max-steps', '50', '--out', OUT])"),
    ("CLI verify --max-steps 100", "main(['verify', '--coin', 'hadamard', '--max-steps', '100', '--out', OUT])"),
    ("CLI verify --max-steps 200", "main(['verify', '--coin', 'hadamard', '--max-steps', '200', '--out', OUT])"),
]


def main() -> int:
    src = Path.cwd() / "src"
    out = run.HERE / ".work" / "baseline.out"
    out.parent.mkdir(parents=True, exist_ok=True)
    print(f"env: {run.environment(src)}")
    print("| workload | time |\n| --- | --- |")
    for label, call in ROWS:
        code = (f"{LIBRARY}from coinwalk.cli import main\nimport time\nOUT = {str(out)!r}\n"
                f"t = time.perf_counter()\n{call}\nprint(time.perf_counter() - t)")
        proc = subprocess.run([sys.executable, "-c", code], env=run.child_env(src),
                              stdout=subprocess.PIPE, text=True, check=True)
        print(f"| {label} | {float(proc.stdout):.3g} s |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
