"""Tests for the command-line interface: formats, flags, exit codes."""

import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    cli,
    dense_series,
    entanglement_series,
    evolve,
    initial_state,
    iter_steps,
    make_coin,
    named_coin,
    phase_diagram,
    run_walk,
)
from coinwalk.cli import main
from conftest import src_env


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(out):
    lines = out.strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------
# walk
# ------------------------------------------------------------


def test_walk_csv_shape_and_sum(capsys):
    code, out, err = _run(capsys, "walk", "--coin", "hadamard", "--steps", "100")
    assert code == 0 and err == ""
    header, rows = _csv_rows(out)
    assert header == "position,probability"
    assert len(rows) == 201  # the 2N+1 reachable sites
    positions = [int(r[0]) for r in rows]
    assert positions == list(range(-100, 101))
    assert abs(sum(float(r[1]) for r in rows) - 1.0) <= 1e-10


def test_walk_csv_round_trips_the_doubles(capsys):
    code, out, _ = _run(capsys, "walk", "--coin", "fourier", "--steps", "40")
    assert code == 0
    _, rows = _csv_rows(out)
    expected = run_walk(named_coin("fourier"), *UNBIASED_INIT, 40)
    parsed = np.array([float(r[1]) for r in rows])
    assert np.array_equal(parsed, expected)  # bit-for-bit


def test_walk_json_round_trips_the_doubles(capsys):
    code, out, _ = _run(
        capsys, "walk", "--theta-deg", "45", "--steps", "25", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theta_deg"] == 45.0
    assert payload["phi1_deg"] == 0.0 and payload["phi2_deg"] == 0.0
    assert payload["steps"] == 25
    assert payload["positions"] == list(range(-25, 26))
    expected = run_walk(named_coin("hadamard"), *UNBIASED_INIT, 25)
    assert np.array_equal(np.array(payload["probs"]), expected)


def test_walk_localizes_at_theta_90(capsys):
    code, out, _ = _run(capsys, "walk", "--theta-deg", "90", "--steps", "10")
    assert code == 0
    _, rows = _csv_rows(out)
    at_origin = {int(r[0]): float(r[1]) for r in rows}[0]
    assert at_origin == pytest.approx(1.0, abs=1e-12)


def test_walk_head_start_at_theta_0_rides_right(capsys):
    code, out, _ = _run(
        capsys, "walk", "--theta-deg", "0", "--init", "head", "--steps", "7"
    )
    assert code == 0
    _, rows = _csv_rows(out)
    probs = {int(r[0]): float(r[1]) for r in rows}
    assert probs[7] == 1.0


def test_walk_writes_the_out_file_with_lf_endings(tmp_path, capsys):
    target = tmp_path / "walk.csv"
    code, out, _ = _run(
        capsys, "walk", "--coin", "hadamard", "--steps", "5", "--out", str(target)
    )
    assert code == 0 and out == ""
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(b"position,probability\n")
    assert raw.endswith(b"\n")


def test_walk_of_100000_steps_finishes(tmp_path, capsys):
    # The guard bounds memory, not time: the walk must also be fast enough.
    target = tmp_path / "walk.csv"
    code, out, _ = _run(
        capsys, "walk", "--coin", "hadamard", "--steps", "100000", "--out", str(target)
    )
    assert code == 0 and out == ""
    table = np.loadtxt(target, delimiter=",", skiprows=1)
    assert table.shape == (200001, 2)
    assert abs(float(np.sum(table[:, 1])) - 1.0) <= 1e-10


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = _run(
        capsys, "walk", "--coin", "hadamard", "--steps", "5", "--out", str(target)
    )
    assert code == 2 and out == ""
    assert err.startswith(f"coinwalk: error: cannot write {target}")
    assert not target.exists()


def test_walk_output_is_deterministic(capsys):
    args = ("walk", "--coin", "fourier", "--steps", "30")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_custom_init_components(capsys):
    code, out, _ = _run(
        capsys,
        "walk",
        "--theta-deg", "45",
        "--alpha-re", "0.6",
        "--beta-im", "0.8",
        "--steps", "10",
    )
    assert code == 0
    _, rows = _csv_rows(out)
    assert abs(sum(float(r[1]) for r in rows) - 1.0) <= 1e-10


# ------------------------------------------------------------
# usage errors -> exit code 2
# ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "--coin", "hadamard", "--steps", "0"),
        ("walk", "--coin", "hadamard", "--steps", "-3"),
        ("walk", "--steps", "5"),  # no coin selection
        ("walk", "--coin", "hadamard", "--theta-deg", "10", "--steps", "5"),
        ("walk", "--coin", "kitchen-sink", "--steps", "5"),
        ("walk", "--coin", "hadamard", "--steps", "five"),
        ("walk", "--coin", "hadamard", "--init", "head", "--alpha-re", "1", "--steps", "5"),
        ("walk", "--theta-deg", "45", "--alpha-re", "1", "--beta-re", "1", "--steps", "5"),
        ("walk", "--theta-deg", "inf", "--steps", "5"),
        ("walk", "--theta-deg", "45", "--alpha-re", "nan", "--steps", "3"),
        ("sweep-theta", "--theta-grid", "90:0:45", "--steps", "5"),
        ("sweep-theta", "--theta-grid", "0:90:-45", "--steps", "5"),
        ("sweep-theta", "--theta-grid", "0:90", "--steps", "5"),
        ("sweep-theta", "--theta-grid", "a:b:c", "--steps", "5"),
        ("sweep-theta", "--phi1-deg", "inf", "--steps", "5"),
        ("phase-diagram", "--theta-deg", "45", "--phi1-grid", "0::30", "--steps", "5"),
        ("phase-diagram", "--theta-deg", "45", "--steps", "3", "--phi1-deg", "30"),
        ("phase-diagram", "--theta-deg", "45", "--steps", "3", "--phi2-deg", "30"),
        ("entanglement", "--coin", "hadamard", "--steps", "-1"),
        ("verify", "--coin", "hadamard", "--max-steps", "0"),
        ("verify", "--coin", "hadamard", "--max-steps", "201"),
        ("no-such-command",),
        ("walk", "--coin", "hadamard", "--steps", "1000000000000"),
        ("phase-diagram", "--coin", "hadamard", "--steps", "5", "--phi1-grid", "0:1e9:1e-9"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code = main(list(argv))
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "--coin", "hadamard", "--steps", "1000000000000"),
        ("sweep-theta", "--theta-grid", "0:1e8:1", "--steps", "100"),
        ("phase-diagram", "--coin", "hadamard", "--steps", "5", "--phi1-grid", "0:1e9:1e-9"),
        ("entanglement", "--coin", "hadamard", "--steps", "1000000000"),
    ],
)
def test_oversized_requests_name_the_memory_cap(capsys, monkeypatch, argv):
    def allocate(*args, **kwargs):
        raise AssertionError("the request got past the memory guard")

    # Everything that would allocate the walk, its grids or its results.
    for name in ("_grid_values", "initial_state", "run_walk", "theta_sweep", "phase_diagram",
                 "entanglement_series"):
        monkeypatch.setattr(cli, name, allocate)
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{cli.MAX_OP_BYTES >> 20} MiB memory cap" in err
    assert "MAX_OP_BYTES" in err


def _traced(call, *args):
    """``call(*args)`` and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: The cap of the guard's edge cases: 1 MiB over the fixed part, so that the
#: largest requests take milliseconds.
_EDGE_CAP = cli._FIXED_BYTES + 2**20


@pytest.mark.parametrize(
    "argv, steps, values",
    [
        (lambda n: ["walk", "--coin", "hadamard", "--steps", str(n)], lambda n: n, lambda n: 0),
        (lambda n: ["entanglement", "--coin", "hadamard", "--steps", str(n)],
         lambda n: n, lambda n: 0),
        # n angles at T = 10: n (2T + 6) values, the 2T + 1 sites of each
        # and five more for its coin, label and JSON block.
        (lambda n: ["sweep-theta", "--theta-grid", f"0:{n - 1}:1", "--steps", "10"],
         lambda n: 10, lambda n: n * 26),
        # n phi1 points and the 6 of the default phi2 grid at T = 10.
        (lambda n: ["phase-diagram", "--coin", "hadamard", "--phi1-grid", f"0:{n - 1}:1",
                    "--steps", "10"],
         lambda n: 10, lambda n: 2 * n + 6),
    ],
    ids=["walk", "entanglement", "sweep-theta", "phase-diagram"],
)
def test_the_memory_guard_admits_exactly_what_its_formula_admits(
    capsys, monkeypatch, argv, steps, values
):
    # The largest request whose estimate from the subcommand's row of the
    # table fits the cap runs; one step, angle or phi1 point more is refused
    # with the memory-cap message.
    monkeypatch.setattr(cli, "MAX_OP_BYTES", _EDGE_CAP)
    _, per_step, per_value = cli._LIMITS[argv(1)[0]]
    n = 1
    while cli._FIXED_BYTES + per_step * steps(n + 1) + per_value * values(n + 1) <= _EDGE_CAP:
        n += 1
    assert n > 100
    code, out, err = _run(capsys, *argv(n), "--out", os.devnull)
    assert (code, out, err) == (0, "", "")
    code, out, err = _run(capsys, *argv(n + 1), "--out", os.devnull)
    assert code == 2 and out == ""
    assert f"the {_EDGE_CAP >> 20} MiB memory cap of one run (MAX_OP_BYTES)" in err


@pytest.mark.parametrize(
    "argv, fewest",
    [
        (("walk", "--coin", "hadamard"), 1),
        (("sweep-theta",), 1),
        (("phase-diagram", "--coin", "hadamard"), 1),
        (("entanglement", "--coin", "hadamard"), 0),
    ],
    ids=["walk", "sweep-theta", "phase-diagram", "entanglement"],
)
def test_each_subcommand_refuses_fewer_steps_than_its_minimum(capsys, argv, fewest):
    code, out, err = _run(capsys, *argv, "--steps", str(fewest), "--out", os.devnull)
    assert (code, out, err) == (0, "", "")
    code, out, err = _run(capsys, *argv, "--steps", str(fewest - 1))
    assert (code, out) == (2, "")
    assert err == f"coinwalk: error: --steps must be at least {fewest}, got {fewest - 1}\n"


def test_a_large_phase_diagram_passes_the_memory_guard(capsys):
    # 2048 x 2048 cells: the op keeps the two grids and the phi1 gaps, not a
    # value per cell, and writes one block of rows at a time.
    code, out, err = _run(capsys, "phase-diagram", "--coin", "hadamard", "--phi1-grid", "0:2047:1",
                          "--phi2-grid", "0:2047:1", "--steps", "10", "--out", os.devnull)
    assert (code, out, err) == (0, "", "")


#: The most the memory estimate of a request may exceed its tracemalloc peak.
_MAX_OVERESTIMATE = 4.2


class _Admitted(Exception):
    """Raised in place of the engine of a request that the memory guard let through."""


def _guard_admits(capsys, monkeypatch, argv, cap):
    """Whether the memory guard lets ``argv`` through under a cap of ``cap`` bytes; no engine runs."""
    def admitted(*args, **kwargs):
        raise _Admitted

    monkeypatch.setattr(cli, "MAX_OP_BYTES", cap)
    for name in ("run_walk", "theta_sweep", "phase_diagram", "entanglement_series"):
        monkeypatch.setattr(cli, name, admitted)
    try:
        code, _, err = _run(capsys, *argv)
    except _Admitted:
        return True
    assert code == 2 and "memory cap" in err
    return False


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["walk", "--coin", "hadamard", "--steps", "2000"],
        ["walk", "--coin", "hadamard", "--steps", "13500"],
        # Dominated by the sites, then by what each angle keeps besides them.
        ["sweep-theta", "--theta-grid", "0:23:1", "--steps", "300"],
        ["sweep-theta", "--theta-grid", "0:3999:1", "--steps", "1"],
        # Dominated by the steps, then by the phi2 grid.  A phi1 grid is left
        # out: below about 27,000 points, too many to trace in time, the
        # fixed part hides its rate.
        ["phase-diagram", "--theta-deg", "40", "--phi1-grid", "0:170:10", "--phi2-grid",
         "0:170:10", "--steps", "20000"],
        ["phase-diagram", "--theta-deg", "40", "--phi1-grid", "0:0:1", "--phi2-grid",
         "0:89999:1", "--steps", "10"],
        ["entanglement", "--theta-deg", "33", "--phi1-deg", "70", "--steps", "2000"],
        ["entanglement", "--theta-deg", "33", "--phi1-deg", "70", "--steps", "10000"],
    ],
    ids=["walk-2000", "walk-13500", "sweep-24x300", "sweep-4000x1", "phase-diagram-steps",
         "phase-diagram-phi2", "entanglement-2000", "entanglement-10000"],
)
def test_the_memory_estimate_brackets_the_traced_peak(capsys, monkeypatch, tmp_path, argv, fmt):
    # The estimate leaves room for what tracemalloc does not see, FFT scratch
    # and allocator overhead: at the largest requests the 1 GiB cap admits,
    # peak RSS grew by 1.0 to 1.5 times the traced figure (the most for a
    # CSV sweep at T = 1), and stayed under the cap.  It over-refuses by at
    # most _MAX_OVERESTIMATE.  The warm-up op builds the parser and the
    # first-call caches, which would add about 0.35 MB to the first peak.
    main(["walk", "--coin", "hadamard", "--steps", "2", "--format", fmt, "--out", os.devnull])
    argv = [*argv, "--format", fmt, "--out", str(tmp_path / "out")]
    code, peak = _traced(main, argv)
    assert code == 0
    assert not _guard_admits(capsys, monkeypatch, argv, int(1.25 * peak))
    assert _guard_admits(capsys, monkeypatch, argv, int(_MAX_OVERESTIMATE * peak))


def test_verify_at_the_dense_cap_frees_the_operator_before_stepping(tmp_path):
    # The dense series copies the two parity-coupled quarters of its operator
    # (half of it) and drops the operator before the first step, so the
    # operator, its quarters and the stacked tables are never alive at once.
    operator = (4 * 200 + 2) ** 2 * 16
    argv = ["verify", "--theta-deg", "33", "--phi1-deg", "70", "--phi2-deg", "10",
            "--max-steps", "200", "--out", str(tmp_path / "gaps")]
    code, peak = _traced(main, argv)
    assert code == 0 and peak < 1.6 * operator


# ------------------------------------------------------------
# sweep-theta
# ------------------------------------------------------------


def test_sweep_csv_covers_the_default_grid(capsys):
    code, out, _ = _run(capsys, "sweep-theta", "--steps", "5")
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == "theta_deg,position,probability"
    grid = sorted({float(r[0]) for r in rows})
    assert grid == [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0]
    assert len(rows) == 8 * 11


def test_grid_points_are_computed_from_the_index(capsys):
    # Point i is start + step * i, so 0.1 * 3 prints as 0.30000000000000004.
    code, out, _ = _run(capsys, "sweep-theta", "--theta-grid", "0:0.3:0.1", "--steps", "1")
    assert code == 0
    _, rows = _csv_rows(out)
    thetas = list(dict.fromkeys(r[0] for r in rows))
    assert thetas == ["0", "0.10000000000000001", "0.20000000000000001", "0.30000000000000004"]
    assert [float(t) for t in thetas] == [0.1 * i for i in range(4)]


def test_sweep_half_turn_pairs_match(capsys):
    code, out, _ = _run(
        capsys, "sweep-theta", "--theta-grid", "10:190:180", "--steps", "40"
    )
    assert code == 0
    _, rows = _csv_rows(out)
    by_theta = {}
    for r in rows:
        by_theta.setdefault(float(r[0]), []).append(float(r[2]))
    assert set(by_theta) == {10.0, 190.0}
    assert np.max(np.abs(np.array(by_theta[10.0]) - np.array(by_theta[190.0]))) <= 1e-12


def test_sweep_json_is_a_block_per_angle(capsys):
    code, out, _ = _run(
        capsys,
        "sweep-theta",
        "--theta-grid", "0:90:45",
        "--phi1-deg", "30",
        "--steps", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [block["theta_deg"] for block in payload] == [0.0, 45.0, 90.0]
    assert all(block["phi1_deg"] == 30.0 for block in payload)
    assert all(len(block["probs"]) == 9 for block in payload)


# ------------------------------------------------------------
# phase-diagram
# ------------------------------------------------------------


def test_phase_diagram_rows_are_row_major(capsys):
    code, out, _ = _run(
        capsys,
        "phase-diagram",
        "--theta-deg", "45",
        "--phi1-grid", "0:90:90",
        "--phi2-grid", "0:60:60",
        "--steps", "10",
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == "phi1_deg,phi2_deg,delta"
    assert [(float(r[0]), float(r[1])) for r in rows] == [
        (0.0, 0.0),
        (0.0, 60.0),
        (90.0, 0.0),
        (90.0, 60.0),
    ]
    delta = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    # the phase diagram cannot depend on phi2
    assert abs(delta[(0.0, 0.0)] - delta[(0.0, 60.0)]) <= 1e-12
    assert abs(delta[(90.0, 0.0)] - delta[(90.0, 60.0)]) <= 1e-12
    # and phi1 = 90 deg is visibly asymmetric while phi1 = 0 is not
    assert delta[(0.0, 0.0)] <= 1e-10
    assert delta[(90.0, 0.0)] > 0.01


def test_phase_diagram_json_shape(capsys):
    code, out, _ = _run(
        capsys,
        "phase-diagram",
        "--coin", "hadamard",
        "--phi1-grid", "0:30:30",
        "--phi2-grid", "0:0:10",
        "--steps", "8",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theta_deg"] == 45.0
    assert payload["phi1_deg"] == [0.0, 30.0]
    assert payload["phi2_deg"] == [0.0]
    assert len(payload["delta"]) == 2 and len(payload["delta"][0]) == 1


@pytest.mark.parametrize("init", ["head", "tail"])
def test_phase_diagram_of_a_basis_start_is_constant(capsys, init):
    code, out, _ = _run(
        capsys,
        "phase-diagram",
        "--theta-deg", "40",
        "--init", init,
        "--phi1-grid", "0:350:10",
        "--phi2-grid", "0:170:10",
        "--steps", "120",
    )
    assert code == 0
    _, rows = _csv_rows(out)
    assert len(rows) == 36 * 18
    assert len({r[2] for r in rows}) == 1


def test_phase_diagram_accepts_a_peak_that_rounds_above_one(capsys):
    # theta = 90 deg localizes: at T = 2 the whole walk can sit on one site,
    # and its probability rounds to 1 + 2e-16 for this start state.
    code, out, err = _run(
        capsys,
        "phase-diagram",
        "--theta-deg", "90",
        "--steps", "2",
        "--phi1-grid", "0:170:10",
        "--alpha-re", "-0.8466057152828365",
        "--alpha-im", "-0.07966788016829934",
        "--beta-re", "-0.4536694052326027",
        "--beta-im", "-0.2666380739426069",
    )
    assert code == 0 and err == ""
    _, rows = _csv_rows(out)
    deltas = [float(r[2]) for r in rows]
    assert len(deltas) == 18 * 6
    assert max(deltas) > 1.0
    assert max(deltas) <= 1.0 + 1e-10


def test_phase_diagram_takes_no_phase_flags(capsys):
    code, out, _ = _run(capsys, "phase-diagram", "--help")
    assert code == 0
    assert "--phi1-grid" in out
    assert "--phi1-deg" not in out and "--phi2-deg" not in out


# ------------------------------------------------------------
# entanglement
# ------------------------------------------------------------


def test_entanglement_trace_rows(capsys):
    code, out, _ = _run(
        capsys, "entanglement", "--coin", "hadamard", "--init", "head", "--steps", "3"
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == "t,schmidt_rank,entropy"
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
    assert [int(r[1]) for r in rows] == [1, 2, 2, 2]
    assert float(rows[0][2]) == 0.0
    assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-12)


def test_entanglement_accepts_zero_steps(capsys):
    code, out, _ = _run(capsys, "entanglement", "--coin", "hadamard", "--steps", "0")
    assert code == 0
    _, rows = _csv_rows(out)
    assert len(rows) == 1
    t, rank, entropy = rows[0]
    assert (t, rank) == ("0", "1")
    assert float(entropy) == 0.0


def test_swap_coin_stays_rank_1(capsys):
    code, out, _ = _run(
        capsys, "entanglement", "--theta-deg", "90", "--init", "head", "--steps", "12"
    )
    assert code == 0
    _, rows = _csv_rows(out)
    assert all(int(r[1]) == 1 for r in rows)
    assert all(float(r[2]) <= 1e-12 for r in rows)


# ------------------------------------------------------------
# verify
# ------------------------------------------------------------


def test_verify_passes_on_identical_engines(capsys):
    code, out, err = _run(
        capsys, "verify", "--coin", "fourier", "--init", "unbiased", "--max-steps", "25"
    )
    assert code == 0 and err == ""
    header, rows = _csv_rows(out)
    assert header == "t,max_abs_discrepancy"
    assert [int(r[0]) for r in rows] == list(range(1, 26))
    assert all(float(r[1]) <= 1e-12 for r in rows)


def test_verify_detects_an_injected_fault(capsys):
    code, out, err = _run(
        capsys, "verify", "--coin", "hadamard", "--max-steps", "10", "--corrupt-coin"
    )
    assert code == 1
    assert "disagree" in err and "t=" in err and "x=" in err


def test_verify_names_the_engines_that_disagree(capsys):
    _, _, err = _run(capsys, "verify", "--coin", "hadamard", "--max-steps", "10", "--corrupt-coin")
    assert " and dense engines disagree" in err


def test_verify_compares_the_momentum_engine_at_the_last_step(capsys, monkeypatch):
    honest = cli.evolve

    def drifting(state, coin, steps):
        table = honest(state, coin, steps)
        if steps == 6:
            table[0, 0] += 1e-9  # the leftmost site of the light cone
        return table

    monkeypatch.setattr(cli, "evolve", drifting)
    code, out, err = _run(capsys, "verify", "--coin", "fourier", "--max-steps", "6")
    assert code == 1
    _, rows = _csv_rows(out)
    gaps = [float(r[1]) for r in rows]
    assert max(gaps[:-1]) <= 1e-12 and gaps[-1] == pytest.approx(1e-9, rel=1e-3)
    assert "the momentum and dense engines disagree" in err
    assert "t=6, position x=-6" in err


@pytest.mark.parametrize("steps", [2, 8, 40])
def test_verify_compares_the_momentum_engine_on_both_step_parities(capsys, monkeypatch, steps):
    # The closed form differs between odd and even step counts (u^(T mod 2)
    # and the read-out shift T // 2), so an op of even --max-steps checks an
    # odd count too, at t = steps - 1.
    honest = cli.evolve

    def drifting(state, coin, t):
        table = honest(state, coin, t)
        if t % 2:
            table[1, steps - t + 1] += 1e-9  # x = 1 - t, the second site of the cone
        return table

    monkeypatch.setattr(cli, "evolve", drifting)
    code, out, err = _run(capsys, "verify", "--theta-deg", "33", "--phi1-deg", "70",
                          "--max-steps", str(steps))
    assert code == 1
    _, rows = _csv_rows(out)
    gaps = [float(r[1]) for r in rows]
    assert max(gaps[:-2] + gaps[-1:]) <= 1e-12 and gaps[-2] == pytest.approx(1e-9, rel=1e-3)
    assert err == (f"verify: the momentum and dense engines disagree by {gaps[-2]:.3e} "
                   f"(> 1e-12) at t={steps - 1}, position x={2 - steps}\n")


def test_verify_json_reports_ok(capsys):
    code, out, _ = _run(
        capsys, "verify", "--theta-deg", "33", "--phi1-deg", "70", "--phi2-deg", "10",
        "--max-steps", "8", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["tolerance"] == 1e-12
    assert len(payload["max_abs_discrepancy"]) == 8


def test_verify_at_the_dense_cap(capsys):
    # --max-steps 200 builds the largest operator the dense engine takes.
    argv = ("verify", "--theta-deg", "33", "--phi1-deg", "70", "--phi2-deg", "10",
            "--max-steps", "200")
    code, out, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    _, rows = _csv_rows(out)
    assert [int(r[0]) for r in rows] == list(range(1, 201))
    assert all(float(r[1]) <= 1e-12 for r in rows)
    # The injected 3e-11 fault still slips past the 1e-10 coin guard of the
    # dense engine, and the 1e-12 comparison still catches it.
    code, _, err = _run(capsys, *argv, "--corrupt-coin")
    assert code == 1
    assert "the recurrence and dense engines disagree" in err


# ------------------------------------------------------------
# angles as given
# ------------------------------------------------------------


def test_raw_phases_differ_from_normalized_ones(capsys):
    # phi1 = 270 deg is used as given, not reduced mod 180 to 90 deg: from the
    # unbiased start phi1 + 180 deg mirrors the walk, so the two walks are
    # mirror images rather than equal.
    _, reduced, _ = _run(capsys, "walk", "--theta-deg", "45", "--phi1-deg", "90", "--steps", "30")
    _, raw, _ = _run(capsys, "walk", "--theta-deg", "45", "--phi1-deg", "270", "--steps", "30")
    _, rows_reduced = _csv_rows(reduced)
    _, rows_raw = _csv_rows(raw)
    p_reduced = np.array([float(r[1]) for r in rows_reduced])
    p_raw = np.array([float(r[1]) for r in rows_raw])
    assert np.max(np.abs(p_reduced - p_raw)) > 0.01
    assert np.max(np.abs(p_reduced - p_raw[::-1])) <= 1e-12


def test_raw_theta_mod_two_pi_is_physically_identical(capsys):
    _, base, _ = _run(capsys, "walk", "--theta-deg", "45", "--steps", "20")
    _, turned, _ = _run(capsys, "walk", "--theta-deg", "405", "--steps", "20")
    _, rows_base = _csv_rows(base)
    _, rows_turned = _csv_rows(turned)
    diff = np.array([float(a[1]) - float(b[1]) for a, b in zip(rows_base, rows_turned)])
    assert np.max(np.abs(diff)) <= 1e-12


# ------------------------------------------------------------
# exact output bytes, against references built from library calls
# ------------------------------------------------------------


def _walk_reference(theta, phi1, phi2, steps):
    probs = run_walk(CoinParams.from_degrees(theta, phi1, phi2), *UNBIASED_INIT, steps).tolist()
    positions = list(range(-steps, steps + 1))
    payload = {"theta_deg": theta, "phi1_deg": phi1, "phi2_deg": phi2, "steps": steps,
               "positions": positions, "probs": probs}
    return "position,probability", list(zip(positions, probs)), payload


def _sweep_reference(start, step, count, phi1, steps):
    thetas = [start + step * i for i in range(count)]
    walks = [_walk_reference(theta, phi1, 0.0, steps) for theta in thetas]
    rows = [(theta, *row) for theta, (_, walk_rows, _) in zip(thetas, walks) for row in walk_rows]
    return "theta_deg,position,probability", rows, [payload for _, _, payload in walks]


def _phase_reference(phi1s, phi2s, steps):
    params = named_coin("hadamard")
    delta = phase_diagram(params.theta, np.radians(phi1s), np.radians(phi2s),
                          *UNBIASED_INIT, steps).tolist()
    payload = {"theta_deg": math.degrees(params.theta), "steps": steps,
               "phi1_deg": phi1s, "phi2_deg": phi2s, "delta": delta}
    rows = [(p1, p2, delta[i][j]) for i, p1 in enumerate(phi1s) for j, p2 in enumerate(phi2s)]
    return "phi1_deg,phi2_deg,delta", rows, payload


def _entanglement_reference(coin, init, steps):
    # The library call the CLI makes; tests/test_entanglement.py checks it against the recurrence.
    params = named_coin(coin)
    table = initial_state(*cli.NAMED_INITS[init], 1)
    ranks, entropies = entanglement_series(table, make_coin(params), steps)
    ranks, entropies, t = ranks.tolist(), entropies.tolist(), list(range(steps + 1))
    degrees = [math.degrees(a) for a in (params.theta, params.phi1, params.phi2)]
    payload = dict(zip(("theta_deg", "phi1_deg", "phi2_deg"), degrees))
    payload.update(steps=steps, t=t, schmidt_rank=ranks, entropy=entropies)
    return "t,schmidt_rank,entropy", list(zip(t, ranks, entropies)), payload


def _verify_reference(theta, phi1, steps, phi2=0.0, corrupt=False, endpoint=evolve,
                      walk=iter_steps):
    """`verify` by the step-by-step loop: its output and the worst (gap, t, x, engine) over 1e-12.

    Each step of ``walk`` is compared on its own, and a step over the
    tolerance becomes the worst only if it is strictly worse than the worst
    so far, the momentum ``endpoint`` at the last two steps last of all.
    """
    coin = make_coin(CoinParams.from_degrees(theta, phi1, phi2))
    dense_coin = coin.copy()
    if corrupt:
        dense_coin[0, 0] += 3e-11  # the fault of --corrupt-coin
    state = initial_state(*UNBIASED_INIT, steps)
    references = list(dense_series(state, dense_coin, steps))
    gaps, worst = [], None

    def compare(engine, table, reference, t):
        nonlocal worst
        diff = np.abs(table - reference)
        gap = float(np.max(diff))
        if gap > cli.VERIFY_TOL and (worst is None or gap > worst[0]):
            worst = (gap, t, int(np.argmax(np.max(diff, axis=0))) - steps, engine)
        return gap

    for t, table in enumerate(walk(state, coin, steps), 1):
        gaps.append(compare("recurrence", table, references[t], t))
    for t in range(max(steps - 1, 1), steps + 1):
        final = endpoint(state, coin, t)
        gaps[t - 1] = max(gaps[t - 1], compare("momentum", final, references[t], t))
    t = list(range(1, steps + 1))
    payload = {"tolerance": cli.VERIFY_TOL, "ok": worst is None, "t": t,
               "max_abs_discrepancy": gaps}
    return "t,max_abs_discrepancy", list(zip(t, gaps)), payload, worst


_EXACT_CASES = {
    "walk": (("walk", "--theta-deg", "37.5", "--phi1-deg", "20", "--phi2-deg", "70",
              "--steps", "30"), lambda: _walk_reference(37.5, 20.0, 70.0, 30)),
    # 6001 rows: more than one CSV block.
    "walk-long": (("walk", "--theta-deg", "45", "--steps", "3000"),
                  lambda: _walk_reference(45.0, 0.0, 0.0, 3000)),
    "sweep": (("sweep-theta", "--theta-grid", "0:0.3:0.1", "--phi1-deg", "33", "--steps", "4"),
              lambda: _sweep_reference(0.0, 0.1, 4, 33.0, 4)),
    "sweep-one-point": (("sweep-theta", "--theta-grid", "10:10:1", "--steps", "3"),
                        lambda: _sweep_reference(10.0, 1.0, 1, 0.0, 3)),
    # 4097 rows an angle: each angle's run spans two CSV blocks; theta = 0 is
    # the ballistic walk and theta = 90 the localized one.
    "sweep-long": (("sweep-theta", "--theta-grid", "0:90:30", "--phi1-deg", "-40",
                    "--steps", "2048"),
                   lambda: _sweep_reference(0.0, 30.0, 4, -40.0, 2048)),
    "phase": (("phase-diagram", "--coin", "hadamard", "--phi1-grid", "0:90:45",
               "--phi2-grid", "0:60:30", "--steps", "8"),
              lambda: _phase_reference([0.0, 45.0, 90.0], [0.0, 30.0, 60.0], 8)),
    # 4201 phi2 points: each phi1 row spans two CSV blocks and two JSON chunks,
    # its one gap repeated down both.
    "phase-long": (("phase-diagram", "--coin", "hadamard", "--phi1-grid", "0:30:30",
                    "--phi2-grid", "0:4200:1", "--steps", "30"),
                   lambda: _phase_reference([0.0, 30.0], [float(j) for j in range(4201)], 30)),
    "phase-one-point": (("phase-diagram", "--coin", "hadamard", "--phi1-grid", "30:30:1",
                         "--phi2-grid", "0:0:1", "--steps", "5"),
                        lambda: _phase_reference([30.0], [0.0], 5)),
    "entanglement": (("entanglement", "--coin", "grover", "--init", "head", "--steps", "12"),
                     lambda: _entanglement_reference("grover", "head", 12)),
    "entanglement-0": (("entanglement", "--coin", "hadamard", "--steps", "0"),
                       lambda: _entanglement_reference("hadamard", "unbiased", 0)),
    "entanglement-fourier": (("entanglement", "--coin", "fourier", "--init", "tail",
                              "--steps", "40"),
                             lambda: _entanglement_reference("fourier", "tail", 40)),
    "verify": (("verify", "--theta-deg", "33", "--phi1-deg", "70", "--max-steps", "8"),
               lambda: _verify_reference(33.0, 70.0, 8)[:3]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("drift", [None, "tie", "above", "far", "repeat"])
@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_verify_picks_the_worst_step_as_the_step_by_step_loop(capsys, monkeypatch, seed,
                                                               corrupt, drift, fmt):
    # The one-pass comparison of the stacked tables against the loop it
    # replaced: the same gaps bit for bit and the same worst step.  The
    # momentum endpoint is drifted at its last step, at x = 1 - T, where the
    # dense table holds an exact zero: far off, or on top of the recurrence's own last table,
    # where it ties the worst recurrence gap or beats it by one ulp.  Or the
    # first and the last recurrence table drift alike, at x = 1 - t.
    rng = np.random.default_rng(5000 + seed)
    theta, phi1, phi2 = (float(a) for a in rng.uniform(0.0, 360.0, size=3))
    steps = int(rng.integers(1, 41))

    def recurrence_endpoint(state, coin, t):
        *_, table = iter_steps(state, coin, t)
        return table

    _, _, payload, _ = _verify_reference(theta, phi1, steps, phi2, corrupt, recurrence_endpoint)
    recurrence_worst = max(payload["max_abs_discrepancy"])
    drifted = {"tie": recurrence_worst, "above": np.nextafter(recurrence_worst, 1.0), "far": 1e-9}

    def endpoint(state, coin, t):
        table = (recurrence_endpoint if drift in ("tie", "above") else evolve)(state, coin, t)
        if drift in drifted and t == steps:
            table[0, 1] = drifted[drift]
        return table

    def walk(state, coin, steps):
        for t, table in enumerate(iter_steps(state, coin, steps), 1):
            if drift == "repeat" and t in (1, steps):
                table[0, steps + 1 - t] = 1e-6
            yield table

    monkeypatch.setattr(cli, "evolve", endpoint)
    monkeypatch.setattr(cli, "iter_steps", walk)
    argv = ["verify", "--theta-deg", repr(theta), "--phi1-deg", repr(phi1),
            "--phi2-deg", repr(phi2), "--max-steps", str(steps), "--format", fmt]
    code, out, err = _run(capsys, *argv, *(["--corrupt-coin"] if corrupt else []))
    header, rows, payload, worst = _verify_reference(theta, phi1, steps, phi2, corrupt, endpoint,
                                                     walk)
    if fmt == "json":
        assert out == json.dumps(payload, indent=2) + "\n"
        assert json.loads(out)["ok"] is (worst is None)
    else:
        assert out == "".join([header + "\n"] + [f"{t},{gap:.17g}\n" for t, gap in rows])
    if worst is None:
        assert (code, err) == (0, "")
    else:
        gap, t, x, engine = worst
        assert code == 1
        assert err == (f"verify: the {engine} and dense engines disagree by {gap:.3e} "
                       f"(> 1e-12) at t={t}, position x={x}\n")
    if drift == "repeat":
        assert worst[1:] == (1, 0, "recurrence")
    if drift == "tie" and corrupt:
        assert worst[3] == "recurrence"
    if drift == "above" and corrupt:
        assert worst[1:] == (steps, 1 - steps, "momentum")


def _lines(text):
    # Equal line lists are equal texts; on a mismatch pytest names the first
    # differing line at once, where a diff of two long strings takes minutes.
    return text.splitlines(keepends=True)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(_EXACT_CASES))
def test_output_bytes_match_the_library_reference(capsys, case, fmt):
    argv, reference = _EXACT_CASES[case]
    code, out, err = _run(capsys, *argv, "--format", fmt)
    assert code == 0 and err == ""
    header, rows, payload = reference()
    if fmt == "json":
        expected = json.dumps(payload, indent=2) + "\n"
    else:
        cell = lambda v: str(v) if isinstance(v, int) else format(v, ".17g")  # noqa: E731
        expected = "".join([header + "\n"] + [",".join(map(cell, row)) + "\n" for row in rows])
    assert _lines(out) == _lines(expected)


def test_csv_writer_formats_blocks_of_integer_and_float_rows():
    ints, floats = np.array([3, -1, 0]), np.array([-0.0, 5e-324, 1e-300])
    text = "".join(cli._csv("i,f,j", ints, floats, ints[::-1]))
    assert text == "i,f,j\n3,-0,0\n-1,4.9406564584124654e-324,-1\n0,1e-300,3\n"
    rows = np.arange(cli.CSV_BLOCK_ROWS + 1)
    chunks = list(cli._csv("n", rows))
    assert len(chunks) == 3  # the header, one full block, one row
    assert _lines("".join(chunks)) == _lines("n\n" + "".join(f"{n}\n" for n in range(rows.size)))
    # An integer beside a float column stays exact above 2**53.
    assert "".join(cli._csv("i,f", np.array([2**53 + 1]), np.array([0.5]))) == (
        "i,f\n9007199254740993,0.5\n"
    )
    # A column broadcast from one value is formatted once, in every block.
    for value, cell in ((0.1 * 3, "0.30000000000000004"), (-0.0, "-0"),
                        (np.int64(2**53 + 1), "9007199254740993")):
        spread = np.broadcast_to(np.asarray(value), rows.shape)
        chunks = list(cli._csv("n,v", rows, spread))
        assert len(chunks) == 3
        expected = "n,v\n" + "".join(f"{n},{cell}\n" for n in range(rows.size))
        assert _lines("".join(chunks)) == _lines(expected)


def test_csv_writer_leads_each_run_of_rows_with_its_label():
    # Each label leads its rows, which take a 1-D column whole and row k of a
    # 2-D one; a run of more than one block starts a new string per block.
    width = cli.CSV_BLOCK_ROWS + 3
    inner = np.arange(width) - 5
    values = np.linspace(-1.0, 1.0, 2 * width).reshape(2, width)
    labels = np.array([0.1 * 3, -0.0])
    # One value a label, broadcast along its run (stride 0), as a phase diagram's gaps.
    spread = np.broadcast_to(np.array([[-0.0], [5e-324]]), values.shape)
    chunks = list(cli._csv("a,b,c,d", inner, values, spread, labels=labels))
    assert len(chunks) == 1 + 2 * 2  # the header, then two blocks per label
    cell = lambda v: str(v) if isinstance(v, int) else format(v, ".17g")  # noqa: E731
    runs = zip(labels.tolist(), values.tolist(), [-0.0, 5e-324])
    rows = [(label, x, v, s) for label, run, s in runs for x, v in zip(inner.tolist(), run)]
    expected = "a,b,c,d\n" + "".join(",".join(map(cell, r)) + "\n" for r in rows)
    assert _lines("".join(chunks)) == _lines(expected)
    # Integer labels and 2-D integer columns stay exact above 2**53.
    text = "".join(cli._csv("i,f,j", np.array([0.5, -2.0]), np.array([[2**53 + 1, 7], [0, -1]]),
                            labels=np.array([2**53 + 3, -4])))
    assert text == ("i,f,j\n9007199254740995,0.5,9007199254740993\n9007199254740995,-2,7\n"
                    "-4,0.5,0\n-4,-2,-1\n")


_EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf])
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    _EDGE_FLOATS,
    st.text(max_size=4),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    hnp.arrays(
        st.sampled_from([np.int8, np.int64, np.uint64, np.float32, np.float64, np.bool_]),
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
    ),
    st.lists(_EDGE_FLOATS, max_size=5).map(np.array),
    st.just(np.array(["a, b", "c"])),
    # One value broadcast along a row (stride 0), as the rows of a phase diagram.
    st.builds(
        lambda value, shape: np.broadcast_to(np.asarray(value), shape),
        _EDGE_FLOATS | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_),
        st.tuples(st.integers(0, 5)) | st.tuples(st.integers(0, 3), st.integers(0, 5)),
    ),
)


# Arrays of more than two blocks: one full block, another, and a part block.
_LONG = 2 * cli.CSV_BLOCK_ROWS + 7


@settings(max_examples=300, deadline=None)
@example(payload={"t": np.arange(_LONG), "rows": [np.linspace(-1.0, 1.0, _LONG)]})
@example(payload={"delta": np.broadcast_to(np.array([[-0.0], [5e-324]]), (2, _LONG)),
                  "flat": np.broadcast_to(np.float64(math.nan), (_LONG,))})
@given(payload=st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
))
def test_json_writer_matches_indented_json_dumps(payload):
    expected = json.dumps(payload, indent=2, default=lambda a: a.tolist())
    assert _lines("".join(cli._json(payload))) == _lines(expected)


def test_a_reused_parser_leaks_nothing_between_calls(capsys):
    assert cli._build_parser() is cli._build_parser()
    angles = ("--theta-deg", "30", "--phi1-deg", "20", "--phi2-deg", "10")
    assert _run(capsys, "walk", *angles, "--steps", "4")[0] == 0
    # A --theta-deg or phase left over from the first call would conflict with --coin.
    code, _, err = _run(capsys, "walk", "--coin", "hadamard", "--steps", "4")
    assert code == 0 and err == ""
    assert _run(capsys, "sweep-theta", "--theta-grid", "0:90:90", "--steps", "2")[0] == 0
    code, out, _ = _run(capsys, "sweep-theta", "--steps", "2")
    _, rows = _csv_rows(out)
    assert code == 0 and sorted({float(r[0]) for r in rows}) == list(range(0, 360, 45))


# ------------------------------------------------------------
# module entry point
# ------------------------------------------------------------


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "coinwalk", "walk", "--coin", "hadamard", "--steps", "3"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("position,probability\n")
    assert len(proc.stdout.strip().split("\n")) == 8  # header + 7 sites


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unwritable_stdout_is_a_usage_error(fmt):
    argv = ["walk", "--coin", "hadamard", "--steps", "3", "--format", fmt]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "coinwalk", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=src_env(),
        )
    assert proc.returncode == 2
    assert proc.stderr == f"coinwalk: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


class _BrokenPipe(io.StringIO):
    """A stream whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_an_unwritable_stderr_keeps_the_exit_codes(monkeypatch, tmp_path):
    # `coinwalk walk ... 2>&1 | head -1` closes both streams: reporting the
    # failure on stderr must not raise out of main and change its code.
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    monkeypatch.setattr(sys, "stderr", _BrokenPipe())
    assert main(["walk", "--coin", "hadamard", "--steps", "3"]) == 2  # cannot write stdout
    assert main(["walk", "--coin", "hadamard", "--steps", "0"]) == 2  # a usage error
    out = str(tmp_path / "out.csv")
    verify = ["verify", "--coin", "hadamard", "--max-steps", "10", "--corrupt-coin", "--out", out]
    assert main(verify) == 1  # the mismatch line

    def numeric_failure(*args):
        raise ValueError("a numeric failure")

    monkeypatch.setattr(cli, "run_walk", numeric_failure)
    assert main(["walk", "--coin", "hadamard", "--steps", "3", "--out", out]) == 1


# ------------------------------------------------------------
# fuzzing: any argv ends in exit 0, 1 or 2, never a traceback
# ------------------------------------------------------------

_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-400, 400).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "", "x"]),
)
# Angles over several turns, which every subcommand uses as given.
_ANGLES = st.one_of(st.floats(-720.0, 720.0).map(repr), _VALUES)
_GRID_JUNK = [
    "0:90", "a:b:c", "90:0:45", "0:90:-1", "nan:1:1", "0:inf:1", "0:1e9:1e-9", "0:1e300:1e-300",
]


@st.composite
def _grids(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_GRID_JUNK))
    start = draw(st.floats(-720.0, 720.0))
    step = draw(st.floats(1e-3, 200.0))
    stop = start + step * draw(st.integers(0, 19))
    return f"{start!r}:{stop!r}:{step!r}"


@st.composite
def _argvs(draw):
    commands = ["walk", "sweep-theta", "phase-diagram", "entanglement", "verify"]
    command = draw(st.sampled_from(commands))
    argv = [command]
    flags = ["--alpha-re", "--alpha-im", "--beta-re", "--beta-im"]
    if command != "phase-diagram":  # its phases come from its grids only
        flags += ["--phi1-deg", "--phi2-deg"]
    if command != "sweep-theta":
        flags.append("--theta-deg")
        if draw(st.booleans()):
            argv += ["--coin", draw(st.sampled_from(["hadamard", "grover", "fourier", "nope"]))]
    for flag in flags:
        if draw(st.integers(0, 3)) == 0:
            argv += [flag, draw(_ANGLES if flag.endswith("-deg") else _VALUES)]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--init", draw(st.sampled_from(["head", "tail", "unbiased"]))]
    if command == "sweep-theta":
        argv += ["--theta-grid", draw(_grids())]
    if command == "phase-diagram":
        argv += ["--phi1-grid", draw(_grids()), "--phi2-grid", draw(_grids())]
    if command == "verify":
        argv += ["--max-steps", str(draw(st.integers(-3, 40)))]
        if draw(st.booleans()):
            argv.append("--corrupt-coin")
    elif draw(st.integers(0, 9)) > 0:
        argv += ["--steps", str(draw(st.integers(-3, 40)))]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


@settings(max_examples=150, deadline=None)
@given(argv=_argvs())
def test_any_small_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
