"""Output checks: each op's file against the momentum-space reference or a law of the walk.

Nothing here compares against a stored copy of earlier output.  The
tolerances are those the program's README promises: probability conserved
to 1e-10, engines agreeing to 1e-12, and invariances (phi2 inert, theta and
theta+180 alike) holding to 1e-12.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import reference
from workloads import Op, grid_values

NORM_TOL = 1e-10
REFERENCE_TOL = 1e-10
INVARIANCE_TOL = 1e-12
VERIFY_TOL = 1e-12
#: Sites of the wrong parity must be empty; a float engine may leave ~1e-32.
PARITY_TOL = 1e-24


class CheckError(Exception):
    """An output that breaks a property the walk must have."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _rows(path: Path, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _expect(bool(rows) and ",".join(rows[0]) == header, f"header is not {header!r}")
    return rows[1:]


def _check_walk(probs: np.ndarray, positions: np.ndarray, coin, steps: int, label: str) -> None:
    """One endpoint distribution: light cone, parity, norm and every site against the reference."""
    _expect(np.array_equal(positions, np.arange(-steps, steps + 1)),
            f"{label}: positions are not the light cone -{steps}..{steps}")
    _expect(bool(np.all(probs >= 0.0)) and bool(np.all(probs <= 1.0 + NORM_TOL)),
            f"{label}: a probability lies outside [0, 1]")
    total = float(probs.sum())
    _expect(abs(total - 1.0) <= NORM_TOL, f"{label}: total probability {total!r} is not 1")
    wrong_parity = probs[(positions + steps) % 2 == 1]
    _expect(float(np.max(wrong_parity, initial=0.0)) <= PARITY_TOL,
            f"{label}: a site of the wrong parity is occupied")
    gap = float(np.max(np.abs(probs - reference.probabilities(reference.coin_matrix(*coin), steps))))
    _expect(gap <= REFERENCE_TOL, f"{label}: differs from the reference by {gap:.3e}")


def check_walk(op: Op, path: Path) -> None:
    if op.fmt == "json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        _expect(payload["steps"] == op.steps, "steps field")
        positions, probs = np.array(payload["positions"]), np.array(payload["probs"], dtype=float)
    else:
        table = np.array(_rows(path, "position,probability"), dtype=float).reshape(-1, 2)
        positions, probs = table[:, 0].astype(np.int64), table[:, 1]
    _check_walk(probs, positions, op.coin, op.steps, f"walk T={op.steps}")


def check_sweep(op: Op, path: Path) -> None:
    thetas = grid_values(op.grid)
    _, phi1, phi2 = op.coin
    table = np.array(_rows(path, "theta_deg,position,probability"), dtype=float).reshape(-1, 3)
    width = 2 * op.steps + 1
    _expect(table.shape[0] == width * len(thetas), "row count")
    _expect(np.array_equal(table[::width, 0], thetas), "theta_deg column")
    by_theta = {}
    for theta, block in zip(thetas, table.reshape(len(thetas), width, 3)):
        positions, probs = block[:, 1].astype(np.int64), block[:, 2]
        _check_walk(probs, positions, (theta, phi1, phi2), op.steps, f"sweep theta={theta}")
        by_theta[theta] = probs
    for theta, probs in by_theta.items():
        twin = by_theta.get(theta + 180.0)
        if twin is not None:
            gap = float(np.max(np.abs(probs - twin)))
            _expect(gap <= INVARIANCE_TOL, f"sweep: theta={theta} and theta+180 differ by {gap:.3e}")


def check_phase(op: Op, path: Path) -> None:
    phi1s, phi2s = grid_values(op.grid), grid_values(op.grid2)
    if op.fmt == "json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        _expect(payload["phi1_deg"] == phi1s and payload["phi2_deg"] == phi2s, "grid fields")
        delta = np.array(payload["delta"], dtype=float)
    else:
        table = np.array(_rows(path, "phi1_deg,phi2_deg,delta"), dtype=float).reshape(-1, 3)
        _expect(table.shape[0] == len(phi1s) * len(phi2s), "row count")
        _expect(np.array_equal(table[:, 0], np.repeat(phi1s, len(phi2s))), "phi1_deg column")
        _expect(np.array_equal(table[:, 1], np.tile(phi2s, len(phi1s))), "phi2_deg column")
        delta = table[:, 2]
    delta = delta.reshape(len(phi1s), len(phi2s))
    _expect(bool(np.all((delta >= 0.0) & (delta <= 1.0))), "a delta lies outside [0, 1]")
    spread = float(np.max(delta.max(axis=1) - delta.min(axis=1)))
    _expect(spread <= INVARIANCE_TOL, f"delta depends on phi2: columns differ by {spread:.3e}")
    for phi1, row in zip(phi1s, delta):
        want = reference.peak_gap(
            reference.probabilities(reference.coin_matrix(op.coin[0], phi1, phi2s[0]), op.steps)
        )
        _expect(abs(row[0] - want) <= REFERENCE_TOL,
                f"phase phi1={phi1}: delta {row[0]!r} against reference {want!r}")


def check_entanglement(op: Op, path: Path) -> None:
    if op.fmt == "json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        t, rank = payload["t"], payload["schmidt_rank"]
        entropy = np.array(payload["entropy"], dtype=float)
    else:
        rows = _rows(path, "t,schmidt_rank,entropy")
        t, rank = [int(r[0]) for r in rows], [int(r[1]) for r in rows]
        entropy = np.array([r[2] for r in rows], dtype=float)
    _expect(t == list(range(op.steps + 1)), f"t is not 0..{op.steps}")
    _expect(rank[0] == 1 and abs(entropy[0]) <= INVARIANCE_TOL,
            "t=0 is not a product state (rank 1, entropy 0)")
    _expect(bool(np.all((entropy >= 0.0) & (entropy <= 1.0 + INVARIANCE_TOL))),
            "an entropy lies outside [0, 1] bit")
    coin = reference.coin_matrix(*op.coin)
    for step in sorted({1, 2, 3, op.steps // 3, op.steps // 2, op.steps}):
        want = reference.entropy_bits(reference.amplitudes(coin, step))
        _expect(abs(entropy[step] - want) <= REFERENCE_TOL,
                f"entanglement t={step}: entropy {entropy[step]!r} against reference {want!r}")


def check_verify(op: Op, path: Path) -> None:
    if op.fmt == "json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        _expect(payload["ok"] is True, "ok is not true")
        t, gaps = payload["t"], payload["max_abs_discrepancy"]
    else:
        rows = _rows(path, "t,max_abs_discrepancy")
        t, gaps = [int(r[0]) for r in rows], [float(r[1]) for r in rows]
    _expect(t == list(range(1, op.steps + 1)), f"t is not 1..{op.steps}")
    _expect(max(gaps) <= VERIFY_TOL, f"engines disagree by {max(gaps):.3e}")


CHECKS = {
    "walk": check_walk,
    "sweep-theta": check_sweep,
    "phase-diagram": check_phase,
    "entanglement": check_entanglement,
    "verify": check_verify,
}


def check(op: Op, path: Path) -> None:
    """Raise CheckError if the output of ``op`` at ``path`` is wrong or malformed."""
    try:
        CHECKS[op.command](op, path)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"unreadable output: {exc!r}") from None
