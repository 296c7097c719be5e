"""Command-line front end: run walks and sweeps, emit CSV or JSON.

Subcommands
-----------
walk
    One walk; rows ``position,probability`` over the ``2N+1`` reachable sites.
sweep-theta
    The walk at each rotation angle of a degree grid, all solved in one
    momentum-space pass; rows ``theta_deg,position,probability``.
phase-diagram
    Peak gap over a (phi1, phi2) degree grid at the theta of --theta-deg or
    of the named coin; rows ``phi1_deg,phi2_deg,delta`` in row-major grid
    order.  The phases come from the grids only.
entanglement
    Schmidt rank and coin-position entropy after each step of a walk from the
    origin, from the momentum-space series; rows ``t,schmidt_rank,entropy``.
verify
    Run the recurrence and dense engines side by side from one start table
    and report the largest amplitude discrepancy per step; the last two
    steps, one of each parity, also compare the momentum-space engine with
    the dense one.  Exits 1 if any step disagrees by more than 1e-12.

Conventions shared by all subcommands: angles are entered in degrees,
output is deterministic (no timestamps, fixed ordering), parsing a float
back reproduces the double bit-for-bit (CSV writes 17 significant digits,
JSON the shortest ``repr`` that round-trips, such as ``45.0``), text is
UTF-8 with LF line endings.  All subcommands write through ``_emit``: JSON
as the bytes of ``json.dumps(payload, indent=2)``, an array at a time, and
CSV in blocks of rows.
Exit codes: 0 success, 1 numeric failure, 2 usage error or unwritable output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from .analysis import phase_diagram, theta_sweep
from .coin import CoinParams, NAMED_COINS, make_coin, named_coin
from .dense import DENSE_HALF_WIDTH_CAP, dense_series
from .entanglement import entanglement_series
from .evolution import evolve, iter_steps, run_walk
from .state import UNBIASED_INIT, check_coin_state, initial_state

__all__ = ["main"]

VERIFY_TOL = 1e-12

#: Memory cap of one subcommand, in bytes.  Each guarded subcommand estimates
#: what it would hold from its row of ``_LIMITS`` before it allocates
#: anything, and a request over the cap is a usage error (exit 2), not a
#: MemoryError or an out-of-memory kill.
MAX_OP_BYTES = 2**30

#: Per guarded subcommand: the fewest ``--steps`` it takes, the bytes it holds
#: per step and the bytes per value it keeps (for a sweep, the 2T + 1 sites of
#: an angle and five more for its coin, label and JSON block; a point of a
#: phase diagram's grids, the phi1 points counted twice for their gaps).  A
#: request is estimated to hold ``_FIXED_BYTES``, one block of output text,
#: plus its steps and values at these rates.  ``verify`` is bounded by
#: ``DENSE_HALF_WIDTH_CAP`` instead.
#: ``test_the_memory_estimate_brackets_the_traced_peak`` holds each estimate
#: between 1.25 times the tracemalloc peak of the request (room for FFT
#: scratch and allocator overhead, which tracemalloc does not see) and 4.2
#: times that peak.
_LIMITS = {"walk": (1, 168, 0), "sweep-theta": (1, 0, 96),
           "phase-diagram": (1, 360, 48), "entanglement": (0, 480, 0)}
_FIXED_BYTES = 2**20

#: Rows of CSV text, or values of a JSON array, formatted at once; one block
#: of text is alive at a time.
CSV_BLOCK_ROWS = 4096

#: Named initial coin states selectable with --init.
NAMED_INITS: dict[str, tuple[complex, complex]] = {
    "unbiased": UNBIASED_INIT,
    "head": (1.0 + 0.0j, 0.0j),
    "tail": (0.0j, 1.0 + 0.0j),
}


class _UsageError(Exception):
    """Invalid flag combination or value; reported on stderr, exit code 2."""


def _parse_grid(text: str, flag: str) -> tuple[float, float, int]:
    """Parse a ``start:stop:step`` degree grid, stop inclusive, into ``(start, step, count)``.

    Point ``i`` of the grid is ``start + step * i``, computed from its index
    (see :func:`_grid_values`): it is neither accumulated step by step nor
    echoed from the input, so rounding never builds up along the grid, and
    ``0:0.3:0.1`` yields 0, 0.1, 0.2 and ``0.1 * 3 = 0.30000000000000004``.
    Nothing is allocated here, so the caller can check the grid's size first.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"{flag} expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"{flag} expects numeric start:stop:step, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise _UsageError(f"{flag} values must be finite, got {text!r}")
    if step <= 0.0:
        raise _UsageError(f"{flag} step must be positive, got {step}")
    if stop < start:
        raise _UsageError(f"{flag} stop must be >= start, got {text!r}")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise _UsageError(f"{flag} has too many points, got {text!r}")
    return start, step, int(math.floor(span + 1e-9)) + 1


def _grid_values(grid: tuple[float, float, int]) -> np.ndarray:
    """The points ``start + step * i`` of a grid from :func:`_parse_grid`."""
    start, step, count = grid
    return start + step * np.arange(count)


def _given(args: argparse.Namespace, named: str, flags: Sequence[str]) -> list[str]:
    """Those of ``flags`` given on the command line; usage error if ``named`` is given too."""
    given = [flag for flag in flags if getattr(args, flag[2:].replace("-", "_"), None) is not None]
    if getattr(args, named[2:]) is not None and given:
        raise _UsageError(f"{named} conflicts with {given[0]}; give one or the other")
    return given


def _coin_params(args: argparse.Namespace) -> tuple[CoinParams, tuple[float, float, float]]:
    """Resolve --coin / --theta-deg flags to CoinParams plus the degree triple.

    The angles reach the coin as given, so the degree triple labels the coin
    that is simulated.  A subcommand without --phi1-deg/--phi2-deg
    (``phase-diagram``) gets phases 0.
    """
    _given(args, "--coin", ("--theta-deg", "--phi1-deg", "--phi2-deg"))
    if args.coin is not None:
        params = named_coin(args.coin)
        degrees = (
            math.degrees(params.theta),
            math.degrees(params.phi1),
            math.degrees(params.phi2),
        )
        return params, degrees
    if args.theta_deg is None:
        raise _UsageError("choose a coin: --coin NAME or --theta-deg")
    phases = (getattr(args, name, None) or 0.0 for name in ("phi1_deg", "phi2_deg"))
    degrees = (args.theta_deg, *phases)
    try:
        params = CoinParams.from_degrees(*degrees)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return params, degrees


def _init_amplitudes(args: argparse.Namespace) -> tuple[complex, complex]:
    """Resolve --init / component flags to the initial (alpha, beta) pair."""
    if _given(args, "--init", ("--alpha-re", "--alpha-im", "--beta-re", "--beta-im")):
        alpha = complex(args.alpha_re or 0.0, args.alpha_im or 0.0)
        beta = complex(args.beta_re or 0.0, args.beta_im or 0.0)
        try:
            return check_coin_state(alpha, beta)
        except ValueError as exc:
            raise _UsageError(f"custom initial state: {exc}") from None
    return NAMED_INITS[args.init or "unbiased"]


def _checked_steps(args: argparse.Namespace, values: int = 0) -> int:
    """``args.steps``, checked against the subcommand's row of ``_LIMITS``.

    Usage error if the steps are fewer than the row allows, or if the
    request, keeping ``values`` values, would hold more than MAX_OP_BYTES.
    """
    fewest, per_step, per_value = _LIMITS[args.command]
    if args.steps < fewest:
        raise _UsageError(f"--steps must be at least {fewest}, got {args.steps}")
    if _FIXED_BYTES + per_step * args.steps + per_value * values > MAX_OP_BYTES:
        raise _UsageError(
            f"the request would hold more than the {MAX_OP_BYTES >> 20} MiB memory cap "
            "of one run (MAX_OP_BYTES); ask for fewer steps or grid points"
        )
    return args.steps


def _csv(header: str, *columns: np.ndarray, labels: np.ndarray | None = None) -> Iterator[str]:
    """CSV text of ``columns`` under ``header``, at most ``CSV_BLOCK_ROWS`` rows per string.

    Without ``labels`` the columns are 1-D and of equal length, a row per
    entry.  With ``labels`` the rows come in one run per label: the rows of
    ``labels[k]`` lead with it and then take each column in turn, whole if
    it is 1-D, and its row ``k`` if it is 2-D.  Integer cells print with
    ``%d``, float cells with ``%.17g``, the same text as
    ``format(value, ".17g")``.  A label is formatted when its run begins, and
    the 1-D columns of a labelled table once in all.  A column broadcast along
    its rows (stride 0 on its last axis, such as a phase diagram's gaps)
    holds one value a run: it is formatted once per run, and its text is
    repeated down each block.  Each column passes through ``tolist`` on its
    own, so integer cells stay Python ints, exact at any size.
    """
    if labels is None:
        leads, columns = [None], [column[None] for column in columns]
    else:
        leads = map(_cell_format(labels).__mod__, labels)
    fixed = [column for column in columns if column.ndim == 1]
    per_label = [column for column in columns if column.ndim == 2]
    # The template of a row: its label, then the text of the 1-D columns and
    # the format of the 2-D ones, ``%s`` for text made once.  A first ``%``
    # fills in the 1-D text and turns the doubled ``%%`` of the rest into
    # formats; with no 1-D column the formats are written as they are, and
    # no first pass is needed.
    esc = "%" if fixed else ""
    cells = (
        _cell_format(c) if c.ndim == 1 else esc + ("%s" if c.strides[-1] == 0 else _cell_format(c))
        for c in columns
    )
    row = (esc + "%s," if labels is not None else "") + ",".join(cells) + "\n"
    width = columns[0].shape[-1]
    # The templates of the blocks, made once: by first row while 1-D text is
    # in them, else by length, of which there are at most two.
    templates = {}
    yield header + "\n"
    for k, lead in enumerate(leads):
        # The label, then row k of each 2-D column: the label and a broadcast
        # row as the one-item list of their text, made once; other rows as they are.
        runs = [[lead]] if lead is not None else []
        runs += [[_cell_format(c) % v for v in c[k, :1].tolist()] if c.strides[-1] == 0
                 else c[k] for c in per_label]
        for start in range(0, width, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, width)
            key = start if fixed else stop - start
            template = templates.get(key)
            if template is None:
                template = row * (stop - start)
                if fixed:
                    template %= _interleave([c[start:stop].tolist() for c in fixed])
                templates[key] = template
            parts = [run * (stop - start) if isinstance(run, list) else run[start:stop].tolist()
                     for run in runs]
            yield template % _interleave(parts)


def _cell_format(column: np.ndarray) -> str:
    """``%d`` for an integer column, ``%.17g`` for a float one."""
    return "%d" if column.dtype.kind in "iu" else "%.17g"


def _interleave(parts: list[list]) -> tuple:
    """The cells of the equally long ``parts`` in row order: one from each part a row."""
    if not parts:
        return ()
    k = len(parts)
    cells = [None] * (k * len(parts[0]))
    for j, part in enumerate(parts):
        cells[j::k] = part
    return tuple(cells)


def _json(obj: object, level: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2)`` in chunks, at nesting depth ``level``.

    ``obj`` holds dicts with string keys, lists, numpy arrays and scalars.
    ``indent`` would send every number through json's pure-Python encoder;
    here the C encoder formats the numbers of each non-empty 1-D numeric
    array, a block of ``CSV_BLOCK_ROWS`` values per chunk, and a deeper array
    is written a row at a time.  A 1-D array broadcast from one value
    (stride 0, such as a row of a phase diagram) is formatted once, and its
    text is repeated a block at a time.
    """
    pad = "\n" + "  " * (level + 1)
    is_array = isinstance(obj, np.ndarray) and obj.ndim > 0
    if is_array and obj.ndim == 1 and obj.dtype.kind in "biuf" and obj.size:
        opener, comma = "[" + pad, "," + pad
        one = json.dumps(obj[:1].tolist())[1:-1] if obj.strides[0] == 0 else None
        for start in range(0, obj.size, CSV_BLOCK_ROWS):
            block = obj[start : start + CSV_BLOCK_ROWS]
            if one is None:
                yield opener + json.dumps(block.tolist())[1:-1].replace(", ", comma)
            else:
                yield opener + comma.join([one] * block.size)
            opener = comma
        yield pad[:-2] + "]"
    elif isinstance(obj, dict) and obj:
        opener = "{"
        for key, value in obj.items():
            yield opener + pad + json.dumps(key) + ": "
            yield from _json(value, level + 1)
            opener = ","
        yield pad[:-2] + "}"
    elif (is_array or isinstance(obj, (list, tuple))) and len(obj):
        opener = "["
        for item in obj:
            yield opener + pad
            yield from _json(item, level + 1)
            opener = ","
        yield pad[:-2] + "]"
    else:
        yield json.dumps(obj, default=lambda a: a.tolist())


def _emit(
    args: argparse.Namespace,
    payload: object,
    header: str,
    *columns: np.ndarray,
    labels: np.ndarray | None = None,
) -> None:
    """Write ``payload`` as JSON, or ``columns`` (and ``labels``) as CSV under ``header``.

    --format chooses; see :func:`_csv` for the columns and labels.
    """
    if args.format == "json":
        _write(itertools.chain(_json(payload), "\n"), args.out)
    else:
        _write(_csv(header, *columns, labels=labels), args.out)


def _write(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the strings of ``chunks`` to stdout, or to ``out_path`` if given."""
    try:
        if out_path is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
            return
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        if out_path is None:
            # Closing drops the unwritten text, which interpreter shutdown
            # would otherwise flush again, report a second time and exit 120.
            with contextlib.suppress(OSError):
                sys.stdout.close()
        target = "stdout" if out_path is None else out_path
        raise _UsageError(f"cannot write {target}: {exc.strerror}") from None


def _report(line: str) -> None:
    """Write ``line`` to stderr; an unwritable stderr must not change the exit code."""
    with contextlib.suppress(OSError):
        print(line, file=sys.stderr)


def _walk_payload(
    degrees: tuple[float, float, float], steps: int, positions: np.ndarray, probs: np.ndarray
) -> dict:
    """One walk's angles and its 2N+1 reachable sites."""
    return {
        "theta_deg": degrees[0],
        "phi1_deg": degrees[1],
        "phi2_deg": degrees[2],
        "steps": steps,
        "positions": positions,
        "probs": probs,
    }


# ------------------------------------------------------------------
# Subcommands
# ------------------------------------------------------------------


def cmd_walk(args: argparse.Namespace) -> int:
    steps = _checked_steps(args)
    params, degrees = _coin_params(args)
    alpha, beta = _init_amplitudes(args)
    probs = run_walk(params, alpha, beta, steps)
    positions = np.arange(-steps, steps + 1)
    payload = _walk_payload(degrees, steps, positions, probs)
    _emit(args, payload, "position,probability", positions, probs)
    return 0


def cmd_sweep_theta(args: argparse.Namespace) -> int:
    alpha, beta = _init_amplitudes(args)
    thetas = _parse_grid(args.theta_grid, "--theta-grid")
    steps = _checked_steps(args, thetas[2] * (2 * args.steps + 6))
    thetas_deg = _grid_values(thetas)
    phi1_deg = args.phi1_deg or 0.0
    phi2_deg = args.phi2_deg or 0.0
    try:
        probs = theta_sweep(
            np.radians(thetas_deg),
            math.radians(phi1_deg),
            math.radians(phi2_deg),
            alpha,
            beta,
            steps,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    positions = np.arange(-steps, steps + 1)
    payload = None
    if args.format == "json":
        payload = [
            _walk_payload((theta_deg, phi1_deg, phi2_deg), steps, positions, row)
            for theta_deg, row in zip(thetas_deg, probs)
        ]
    header = "theta_deg,position,probability"
    _emit(args, payload, header, positions, probs, labels=thetas_deg)
    return 0


def cmd_phase_diagram(args: argparse.Namespace) -> int:
    params, degrees = _coin_params(args)
    alpha, beta = _init_amplitudes(args)
    phi1s = _parse_grid(args.phi1_grid, "--phi1-grid")
    phi2s = _parse_grid(args.phi2_grid, "--phi2-grid")
    steps = _checked_steps(args, 2 * phi1s[2] + phi2s[2])
    phi1_deg, phi2_deg = _grid_values(phi1s), _grid_values(phi2s)
    delta = phase_diagram(
        params.theta, np.radians(phi1_deg), np.radians(phi2_deg), alpha, beta, steps
    )
    payload = {
        "theta_deg": degrees[0],
        "steps": steps,
        "phi1_deg": phi1_deg,
        "phi2_deg": phi2_deg,
        "delta": delta,
    }
    _emit(args, payload, "phi1_deg,phi2_deg,delta", phi2_deg, delta, labels=phi1_deg)
    return 0


def cmd_entanglement(args: argparse.Namespace) -> int:
    steps = _checked_steps(args)
    params, degrees = _coin_params(args)
    alpha, beta = _init_amplitudes(args)
    ranks, entropies = entanglement_series(initial_state(alpha, beta, 1), make_coin(params), steps)
    t = np.arange(steps + 1)
    payload = {
        "theta_deg": degrees[0],
        "phi1_deg": degrees[1],
        "phi2_deg": degrees[2],
        "steps": steps,
        "t": t,
        "schmidt_rank": ranks,
        "entropy": entropies,
    }
    _emit(args, payload, "t,schmidt_rank,entropy", t, ranks, entropies)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    steps = args.max_steps
    if steps < 1:
        raise _UsageError(f"--max-steps must be at least 1, got {steps}")
    if steps > DENSE_HALF_WIDTH_CAP:
        raise _UsageError(
            f"--max-steps is capped at {DENSE_HALF_WIDTH_CAP} (dense reference engine), got {steps}"
        )
    params, _ = _coin_params(args)
    alpha, beta = _init_amplitudes(args)
    coin = make_coin(params)
    dense_coin = coin.copy()
    if args.corrupt_coin:
        # Fault-injection hook: small enough to slip past the dense engine's
        # coin unitarity guard (1e-10), large enough to trip the 1e-12 comparison.
        dense_coin[0, 0] += 3e-11
    # The tables of t = 1 .. steps, stacked: all three engines start from the same table.
    state = initial_state(alpha, beta, steps)
    references = np.stack(list(dense_series(state, dense_coin, steps))[1:])
    site_gaps = np.abs(np.stack(list(iter_steps(state, coin, steps))) - references).max(axis=1)
    gaps = site_gaps.max(axis=1)
    # (discrepancy, t, x, engine) of the worst step over the tolerance: the
    # first such recurrence step, unless the momentum engine is strictly worse.
    worst: tuple[float, int, int, str] | None = None
    over = np.flatnonzero(gaps > VERIFY_TOL)
    if over.size:
        k = over[np.argmax(gaps[over])]
        worst = (float(gaps[k]), int(k) + 1, int(np.argmax(site_gaps[k])) - steps, "recurrence")
    # The momentum engine has no intermediate times.  It joins at the last
    # two steps, one of each parity: its closed form differs between odd and
    # even step counts.
    for t in range(max(steps - 1, 1), steps + 1):
        momentum_gaps = np.abs(evolve(state, coin, t) - references[t - 1]).max(axis=0)
        gap = float(momentum_gaps.max())
        if gap > VERIFY_TOL and (worst is None or gap > worst[0]):
            worst = (gap, t, int(np.argmax(momentum_gaps)) - steps, "momentum")
        gaps[t - 1] = max(gaps[t - 1], gap)
    t = np.arange(1, steps + 1)
    payload = {"tolerance": VERIFY_TOL, "ok": worst is None, "t": t, "max_abs_discrepancy": gaps}
    _emit(args, payload, "t,max_abs_discrepancy", t, gaps)
    if worst is not None:
        gap, t, x, engine = worst
        _report(
            f"verify: the {engine} and dense engines disagree by {gap:.3e} "
            f"(> {VERIFY_TOL:.0e}) at t={t}, position x={x}"
        )
        return 1
    return 0


# ------------------------------------------------------------------
# Parser wiring
# ------------------------------------------------------------------


def _add_coin_flags(parser: argparse.ArgumentParser, phases: bool = True) -> None:
    parser.add_argument(
        "--coin",
        choices=sorted(NAMED_COINS),
        help="named coin (conflicts with the explicit angle flags)",
    )
    parser.add_argument("--theta-deg", type=float, help="rotation angle in degrees")
    if phases:
        _add_phase_flags(parser)


def _add_phase_flags(parser: argparse.ArgumentParser) -> None:
    for flag, nth in (("--phi1-deg", "first"), ("--phi2-deg", "second")):
        parser.add_argument(flag, type=float, help=f"{nth} phase angle in degrees (default 0)")


def _add_init_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--init",
        choices=sorted(NAMED_INITS),
        help="named initial coin state (default: unbiased = (|H> - i|T>)/sqrt(2))",
    )
    for flag, doc in (
        ("--alpha-re", "Re of the head amplitude"),
        ("--alpha-im", "Im of the head amplitude"),
        ("--beta-re", "Re of the tail amplitude"),
        ("--beta-im", "Im of the tail amplitude"),
    ):
        parser.add_argument(flag, type=float, help=f"custom initial state: {doc}")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of all subcommands, built once a process: ``parse_args`` keeps no state."""
    parser = argparse.ArgumentParser(
        prog="coinwalk",
        description="Discrete-time quantum walk on a line with a general three-parameter coin.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    walk = sub.add_parser("walk", help="run one walk, emit position,probability")
    _add_coin_flags(walk)
    _add_init_flags(walk)
    walk.add_argument("--steps", type=int, required=True, help="number of steps (>= 1)")
    _add_output_flags(walk)
    walk.set_defaults(handler=cmd_walk)

    sweep = sub.add_parser("sweep-theta", help="one walk per rotation angle of a grid")
    sweep.add_argument(
        "--theta-grid",
        default="0:315:45",
        metavar="START:STOP:STEP",
        help="rotation-angle grid in degrees, stop inclusive (default 0:315:45)",
    )
    _add_phase_flags(sweep)
    _add_init_flags(sweep)
    sweep.add_argument("--steps", type=int, required=True, help="number of steps (>= 1)")
    _add_output_flags(sweep)
    sweep.set_defaults(handler=cmd_sweep_theta)

    phase = sub.add_parser(
        "phase-diagram",
        help="peak gap over a (phi1, phi2) grid",
        description="Peak gap over a (phi1, phi2) grid at one rotation angle.  The angle "
        "comes from --theta-deg or from the theta of the named --coin; the phases come "
        "from --phi1-grid and --phi2-grid only.",
    )
    _add_coin_flags(phase, phases=False)
    _add_init_flags(phase)
    phase.add_argument("--steps", type=int, required=True, help="number of steps (>= 1)")
    phase.add_argument(
        "--phi1-grid",
        default="0:150:30",
        metavar="START:STOP:STEP",
        help="phi1 grid in degrees, stop inclusive (default 0:150:30)",
    )
    phase.add_argument(
        "--phi2-grid",
        default="0:150:30",
        metavar="START:STOP:STEP",
        help="phi2 grid in degrees, stop inclusive (default 0:150:30)",
    )
    _add_output_flags(phase)
    phase.set_defaults(handler=cmd_phase_diagram)

    ent = sub.add_parser("entanglement", help="Schmidt rank and entropy after each step")
    _add_coin_flags(ent)
    _add_init_flags(ent)
    ent.add_argument("--steps", type=int, required=True, help="number of steps (>= 0)")
    _add_output_flags(ent)
    ent.set_defaults(handler=cmd_entanglement)

    verify = sub.add_parser(
        "verify",
        help="cross-check the recurrence and momentum engines against the dense operator",
    )
    _add_coin_flags(verify)
    _add_init_flags(verify)
    verify.add_argument(
        "--max-steps",
        type=int,
        default=30,
        help=f"compare the engines after each of this many steps (1..{DENSE_HALF_WIDTH_CAP})",
    )
    verify.add_argument("--corrupt-coin", action="store_true", help=argparse.SUPPRESS)
    _add_output_flags(verify)
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its codes.
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        _report(f"{parser.prog}: error: {exc}")
        return 2
    except ValueError as exc:
        _report(f"{parser.prog}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
