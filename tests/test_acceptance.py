"""Acceptance gate: the end-to-end behaviours the package promises.

Every test here checks one promised behaviour at its stated tolerance and
prints a single ``ACCEPTANCE <name>: PASS/FAIL`` line (visible with
``pytest -s``); the pytest verdict carries the same information.  Randomized
criteria use fixed seeds so the gate is reproducible.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from coinwalk import (
    UNBIASED_INIT,
    CoinParams,
    build_step_unitary,
    dense_series,
    entanglement_entropy,
    evolve,
    initial_state,
    iter_steps,
    make_coin,
    named_coin,
    peak_gap,
    phase_diagram,
    run_walk,
    schmidt_spectrum,
    symmetry_deviation,
)
from coinwalk.cli import main

from conftest import normalized_pair, random_coin_angles


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ------------------------------------------------------------------
# 1. Normalization holds at every step, at scale, fast
# ------------------------------------------------------------------


def test_c01_norm_preserved_for_500_random_walks():
    rng = np.random.default_rng(20260814)
    steps = 200
    worst = 0.0
    started = time.perf_counter()
    for _ in range(500):
        coin = make_coin(CoinParams(*random_coin_angles(rng)))
        state = initial_state(*normalized_pair(rng), steps)
        for table in iter_steps(state, coin, steps):
            worst = max(worst, abs(float(np.sum(np.abs(table) ** 2)) - 1.0))
    elapsed = time.perf_counter() - started
    _report(
        "norm-preservation-500x200",
        worst <= 1e-10 and elapsed < 10.0,
        f"max |P-1| = {worst:.3e}, {elapsed:.2f} s",
    )


# ------------------------------------------------------------------
# 2. One- and two-step amplitudes match the closed forms
# ------------------------------------------------------------------


def test_c02_golden_amplitudes_one_and_two_steps():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        theta, phi1, phi2 = random_coin_angles(rng)
        c, s = math.cos(theta), math.sin(theta)
        coin = make_coin(CoinParams(theta, phi1, phi2))
        at = 3  # the column of position 0 in the window x = -3 .. 3
        one = evolve(initial_state(1.0, 0.0, 3), coin, 1)
        expected_one = np.zeros((2, 7), dtype=complex)
        expected_one[0, at + 1] = c
        expected_one[1, at - 1] = np.exp(1j * phi2) * s
        worst = max(worst, float(np.max(np.abs(one - expected_one))))
        two = evolve(one, coin, 1)
        expected_two = np.zeros((2, 7), dtype=complex)
        expected_two[0, at + 2] = c * c
        expected_two[0, at] = np.exp(1j * (phi1 + phi2)) * s * s
        expected_two[1, at] = np.exp(1j * phi2) * s * c
        expected_two[1, at - 2] = -np.exp(1j * (phi1 + 2 * phi2)) * s * c
        worst = max(worst, float(np.max(np.abs(two - expected_two))))
    _report("golden-amplitudes-20-triples", worst <= 1e-14, f"max |diff| = {worst:.3e}")


# ------------------------------------------------------------------
# 3. Full revival at theta = 90/270 degrees and even times
# ------------------------------------------------------------------


def test_c03_localization_at_quarter_turns():
    worst = 1.0
    for theta_deg in (90.0, 270.0):
        probs = run_walk(CoinParams.from_degrees(theta_deg), *UNBIASED_INIT, steps=100)
        worst = min(worst, probs[100])  # x = 0 at entry T
    _report(
        "revival-theta-90-270", abs(worst - 1.0) <= 1e-12, f"min P(0) = {worst:.15f}"
    )


# ------------------------------------------------------------------
# 4. Ballistic corner peaks at theta = 0/180 degrees
# ------------------------------------------------------------------


def test_c04_corner_peaks_at_theta_0_180():
    peaks_ok = True
    rest = 0.0
    detail = []
    for theta_deg in (0.0, 180.0):
        probs = run_walk(CoinParams.from_degrees(theta_deg), *UNBIASED_INIT, steps=100)
        left, right = probs[0], probs[-1]  # x = -100 and x = 100
        peaks_ok &= abs(left - 0.5) <= 1e-12 and abs(right - 0.5) <= 1e-12
        others = probs[1:-1]
        rest = max(rest, float(np.max(others)))
        detail.append(f"theta={theta_deg:g}: P(+-100)=({left:.12f},{right:.12f})")
    _report(
        "corner-peaks-theta-0-180",
        peaks_ok and rest <= 1e-14,
        "; ".join(detail) + f", max elsewhere = {rest:.3e}",
    )


# ------------------------------------------------------------------
# 5. phi2 never shows up in the distribution
# ------------------------------------------------------------------


def test_c05_phi2_is_inert():
    worst = 0.0
    phi2_values = [math.radians(v) for v in range(0, 180, 30)]
    for theta_deg in (15.0, 45.0, 75.0):
        for phi1_deg in (0.0, 45.0, 90.0):
            dists = [
                run_walk(
                    CoinParams(math.radians(theta_deg), math.radians(phi1_deg), phi2),
                    *UNBIASED_INIT,
                    steps=100,
                )
                for phi2 in phi2_values
            ]
            base = dists[0]
            for other in dists[1:]:
                worst = max(worst, float(np.max(np.abs(base - other))))
    _report("phi2-inertness-3x3x6", worst <= 1e-12, f"max pairwise |diff| = {worst:.3e}")


# ------------------------------------------------------------------
# 6. theta and theta + 180 degrees walk identically
# ------------------------------------------------------------------


def test_c06_half_turn_shift_of_theta():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        theta, phi1, phi2 = random_coin_angles(rng)
        alpha, beta = normalized_pair(rng)
        d0 = run_walk(CoinParams(theta, phi1, phi2), alpha, beta, steps=100)
        d1 = run_walk(CoinParams(theta + math.pi, phi1, phi2), alpha, beta, steps=100)
        worst = max(worst, float(np.max(np.abs(d0 - d1))))
    _report("theta-half-turn-20-random", worst <= 1e-12, f"max |diff| = {worst:.3e}")


# ------------------------------------------------------------------
# 7. phi1 skews the walk as Konno's limit says, maximally at 90 degrees
# ------------------------------------------------------------------


def test_c07_phi1_controls_the_asymmetry(capsys):
    # Konno's limit of E[X/T] from the unbiased start at theta = 45 deg is
    # k (1 - sqrt(1 - |a|^2)) with k = tan(theta) sin(phi1) and |a| = cos(theta),
    # that is sin(phi1) (1 - 1/sqrt(2)), over the whole circle of phi1 as given.
    steps = 100
    grid = [float(v) for v in range(0, 331, 30)]
    sym, gap, error = {}, {}, {}
    for phi1_deg in grid:
        argv = ["walk", "--theta-deg", "45", "--phi1-deg", repr(phi1_deg), "--steps", str(steps)]
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phi1_deg"] == phi1_deg
        positions, probs = np.array(payload["positions"]), np.array(payload["probs"])
        assert np.array_equal(positions, np.arange(-steps, steps + 1))
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert abs(float(np.sum(probs)) - 1.0) <= 1e-10
        sym[phi1_deg] = symmetry_deviation(probs)
        gap[phi1_deg] = peak_gap(probs)
        mean = float(np.sum(probs * positions)) / steps
        error[phi1_deg] = mean - math.sin(math.radians(phi1_deg)) * (1.0 - 1.0 / math.sqrt(2.0))
    half = [v for v in grid if v <= 180.0]
    symmetric_ends = sym[0.0] <= 1e-12 and sym[180.0] <= 1e-12
    sym_max_at_90 = all(sym[90.0] > sym[v] for v in half if v != 90.0)
    gap_max_at_90 = all(gap[90.0] > gap[v] for v in half if v != 90.0)
    worst = max(abs(e) for e in error.values())
    _report(
        "phi1-asymmetry-grid",
        symmetric_ends and sym_max_at_90 and gap_max_at_90 and worst <= 1.25 / steps,
        f"sym(0)={sym[0.0]:.2e}, sym(180)={sym[180.0]:.2e}, "
        f"sym(90)={sym[90.0]:.4f}, gap(90)={gap[90.0]:.4f}, "
        f"worst |E[X/T] - Konno| * T = {worst * steps:.3f} over phi1 = 0..330 deg",
    )


# ------------------------------------------------------------------
# 8. The two engines agree; the assembled operator matches the
#    hand-written half-width-2 matrix
# ------------------------------------------------------------------


def test_c08a_engines_agree_for_50_random_walks():
    rng = np.random.default_rng(8)
    n = 20
    worst = 0.0
    for _ in range(50):
        theta, phi1, phi2 = random_coin_angles(rng)
        alpha, beta = normalized_pair(rng)
        coin = make_coin(CoinParams(theta, phi1, phi2))
        walk = iter_steps(initial_state(alpha, beta, n), coin, n)
        references = dense_series(alpha, beta, coin, n)
        next(references)  # t = 0: both engines start from the same table
        for table, reference in zip(walk, references):
            worst = max(worst, float(np.max(np.abs(table - reference))))
    _report("engine-agreement-50x20", worst <= 1e-12, f"max |amp diff| = {worst:.3e}")


def _explicit_half_width_2_operator(a, b, c, d):
    """The 10x10 one-step operator written out entry by entry."""
    z = 0.0
    return np.array(
        [
            [z, z, z, z, a, z, z, z, z, b],
            [a, z, z, z, z, b, z, z, z, z],
            [z, a, z, z, z, z, b, z, z, z],
            [z, z, a, z, z, z, z, b, z, z],
            [z, z, z, a, z, z, z, z, b, z],
            [z, c, z, z, z, z, d, z, z, z],
            [z, z, c, z, z, z, z, d, z, z],
            [z, z, z, c, z, z, z, z, d, z],
            [z, z, z, z, c, z, z, z, z, d],
            [c, z, z, z, z, d, z, z, z, z],
        ],
        dtype=complex,
    )


def test_c08b_assembled_operator_matches_the_explicit_matrix():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(5):
        theta, phi1, phi2 = random_coin_angles(rng)
        built = build_step_unitary(make_coin(CoinParams(theta, phi1, phi2)), 2)
        expected = _explicit_half_width_2_operator(
            math.cos(theta),
            np.exp(1j * phi1) * math.sin(theta),
            np.exp(1j * phi2) * math.sin(theta),
            -np.exp(1j * (phi1 + phi2)) * math.cos(theta),
        )
        worst = max(worst, float(np.max(np.abs(built - expected))))
    _report("explicit-10x10-operator", worst <= 1e-14, f"max |diff| = {worst:.3e}")


# ------------------------------------------------------------------
# 9. Entanglement: one step entangles maximally at 45 deg, never at 90
# ------------------------------------------------------------------


def test_c09_schmidt_rank_and_entropy():
    coin45 = make_coin(CoinParams.from_degrees(45.0))
    state = initial_state(1.0, 0.0, 20)
    _, rank0 = schmidt_spectrum(state)
    state1 = evolve(state, coin45, 1)
    _, rank1 = schmidt_spectrum(state1)
    entropy1 = entanglement_entropy(state1)
    swap_ok = True
    swap_state = initial_state(1.0, 0.0, 20)
    coin90 = make_coin(CoinParams.from_degrees(90.0))
    for _ in range(20):
        swap_state = evolve(swap_state, coin90, 1)
        swap_ok &= schmidt_spectrum(swap_state)[1] == 1
    _report(
        "schmidt-rank-entropy",
        rank0 == 1 and rank1 == 2 and abs(entropy1 - 1.0) <= 1e-12 and swap_ok,
        f"rank(t=0)={rank0}, rank(t=1)={rank1}, S(t=1)={entropy1:.15f}, "
        f"swap coin rank 1 up to t=20: {swap_ok}",
    )


# ------------------------------------------------------------------
# 10. The unbiased 45-degree walk always shows level twin peaks
# ------------------------------------------------------------------


def test_c10_twin_peaks_of_the_unbiased_walk():
    worst_gap = 0.0
    worst_sym = 0.0
    for steps in (50, 100):
        for phi2_deg in range(0, 180, 30):
            probs = run_walk(
                CoinParams.from_degrees(45.0, 0.0, float(phi2_deg)),
                *UNBIASED_INIT,
                steps=steps,
            )
            worst_gap = max(worst_gap, peak_gap(probs))
            worst_sym = max(worst_sym, symmetry_deviation(probs))
    _report(
        "unbiased-twin-peaks",
        worst_gap <= 1e-10 and worst_sym <= 1e-12,
        f"max peak gap = {worst_gap:.3e}, max asymmetry = {worst_sym:.3e}",
    )


# ------------------------------------------------------------------
# 11. Performance floors
# ------------------------------------------------------------------


def test_c11_performance_floors():
    started = time.perf_counter()
    probs = run_walk(named_coin("hadamard"), *UNBIASED_INIT, steps=1000)
    walk_elapsed = time.perf_counter() - started
    assert abs(probs.sum() - 1.0) <= 1e-10
    started = time.perf_counter()
    phase_diagram(
        math.pi / 4.0,
        [math.radians(v) for v in range(0, 181, 30)],
        [0.0],
        *UNBIASED_INIT,
        steps=100,
    )
    sweep_elapsed = time.perf_counter() - started
    _report(
        "performance-floors",
        walk_elapsed < 1.0 and sweep_elapsed < 1.0,
        f"1000-step walk: {walk_elapsed:.3f} s, 7-point phi1 sweep at t=100: "
        f"{sweep_elapsed:.3f} s",
    )


def test_c11b_phase_diagram_floor():
    # Two walks for the whole grid; one walk per point took about 17 s on a 2-core x86-64 host.
    grid = np.radians(np.arange(181.0))
    started = time.perf_counter()
    delta = phase_diagram(math.pi / 4.0, grid, grid, *UNBIASED_INIT, steps=1000)
    elapsed = time.perf_counter() - started
    _report(
        "phase-diagram-floor",
        elapsed < 1.0 and delta.shape == (181, 181),
        f"181x181 (phi1, phi2) diagram at t=1000: {elapsed:.3f} s",
    )


def test_c11c_entanglement_series_floor(tmp_path):
    # One momentum-space series; stepping the recurrence took 4 to 6 s on a
    # 2-core x86-64 host at 20000 steps, and the exact O(T^2) sum of sines and
    # cosines about 30 s at 100000.
    out = tmp_path / "entanglement.csv"
    for steps, name in ((20000, "entanglement-floor"), (100000, "long-entanglement-floor")):
        started = time.perf_counter()
        code = main(["entanglement", "--coin", "hadamard", "--steps", str(steps), "--out", str(out)])
        elapsed = time.perf_counter() - started
        rows = out.read_text(encoding="utf-8").count("\n") - 1
        _report(
            name,
            code == 0 and rows == steps + 1 and elapsed < 2.0,
            f"CLI entanglement series of {steps} steps: {elapsed:.3f} s",
        )


def test_c11d_json_output_costs_at_most_1_8_csv_runs(tmp_path):
    # A ratio of CPU times rides out the host's speed and the time spent waiting
    # for a CPU on a shared host.  JSON numbers come from the C encoder;
    # json.dumps(indent=2) formatted them in Python and took 2.3x the CSV run.
    argv = ["walk", "--coin", "hadamard", "--steps", "100000", "--out", str(tmp_path / "walk")]
    cpu = {"csv": [], "json": []}
    for _ in range(5):
        for fmt, samples in cpu.items():
            started = time.process_time()
            assert main([*argv, "--format", fmt]) == 0
            samples.append(time.process_time() - started)
    json_s, csv_s = statistics.median(cpu["json"]), statistics.median(cpu["csv"])
    _report(
        "json-output-ratio",
        json_s <= 1.8 * csv_s,
        f"walk of 100000 steps, median CPU time of 5: JSON {json_s:.3f} s, CSV {csv_s:.3f} s, "
        f"ratio {json_s / csv_s:.2f}",
    )
