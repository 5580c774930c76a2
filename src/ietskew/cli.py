"""Batch command line: inspect | eigencocycles | certify | maharam | continuity | verify.

Every command takes --instance (a file path or a packaged instance name).
Exit codes: 0 ok, 1 validation error or unwritable --out, 2 check failure,
3 inconclusive (a bound hit before a result, or memory ran out), each with
one line on stderr; a closed stdout (``| head``) ends the run quietly.
Output rows are written in a canonical order so runs are reproducible
given (instance file, seed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict
from itertools import chain, product

import numpy as np

from .algebra import is_positive, zero_vector
from .cocycles import CertificateInconclusive, amplify_for_common_prefix
from .instances import BuiltInstance, InstanceError, build_instance, load_instance
from .maharam import (
    CONTINUITY_LEVEL,
    TABLE_LEVEL,
    GridProfile,
    MeasureTable,
    build_measure_table,
    continuity_profile,
    default_cylinder_family,
    dyadic_grids,
    grid_axis,
)
from .skew import check_periodic_type, require_periodic_type
from .verification import run_verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILURE = 2
EXIT_INCONCLUSIVE = 3


# the options a command may read, besides --instance
OPTIONS = {
    "--psi": dict(action="append", help="comma-separated parameter vector; repeatable"),
    "--grid": dict(action="append", help="min:max:steps grid axis; repeat per coordinate"),
    "--level": dict(type=int, help="working depth"),
    "--seed": dict(type=int, help="sampling seed"),
    "--out": dict(help="write output to this path"),
}
class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error: exit 1 with one stderr line."""

    def error(self, message):
        raise ValueError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ietskew",
        description=(
            "Periodic-type skew-products over interval exchanges: towers, "
            "eigencocycles, aperiodicity certificates and Maharam measures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, flags, formats, run) in SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        cmd.set_defaults(run=run)
        cmd.add_argument("--instance", required=True, help="instance file or packaged name")
        for flag in flags:
            cmd.add_argument(flag, **OPTIONS[flag])
        if formats:
            cmd.add_argument("--format", choices=formats)
    return parser


@contextlib.contextmanager
def _open_out(path: str | None):
    """The --out file, opened before the command does its work, so that an
    unwritable path fails at once. It is emptied only when the command
    writes (``_sink``): a command that stops early leaves an old file as
    it was, and a new file it never wrote is removed."""
    if not path:
        yield None
        return
    existed = os.path.exists(path)
    fh = open(path, "a")
    try:
        yield fh
    finally:
        fh.close()
        if not existed and os.path.getsize(path) == 0:
            os.remove(path)


def _sink(out):
    """Where a command writes: the open --out file, emptied first, or stdout."""
    if not out:
        return sys.stdout
    if out.seekable():
        out.seek(0)
        out.truncate()
    return out


def _emit(text: str, out) -> None:
    if not out and not text.endswith("\n"):
        text += "\n"
    _sink(out).write(text)


def _parse_psi_args(args, m: int, built: BuiltInstance) -> list[tuple[float, ...]]:
    if args.psi:
        out = []
        for raw in args.psi:
            parts = tuple(float(x) for x in raw.split(","))
            if len(parts) != m:
                raise InstanceError(f"--psi needs {m} coordinates, got {raw!r}")
            out.append(parts)
        return out
    if built.spec.psi:
        return [tuple(p) for p in built.spec.psi]
    return [zero_vector(m)]


def _parse_grid_args(args, m: int):
    if not args.grid:
        return None
    specs = args.grid
    if len(specs) == 1 and m > 1:
        specs = specs * m
    if len(specs) != m:
        raise InstanceError(f"--grid given {len(args.grid)} times; need 1 or {m}")
    axes = []
    for raw in specs:
        try:
            lo, hi, steps = raw.split(":")
            lo, hi, steps = float(lo), float(hi), int(steps)
            span = (hi - lo) * steps  # the largest (hi - lo) * i of the grid points
        except (ValueError, OverflowError):  # OverflowError: steps past float range
            raise InstanceError(f"bad --grid spec {raw!r}; want min:max:steps") from None
        # refuses a nan, an inf and a span or a grid point past float range
        if steps < 1 or not 0 < hi - lo or not span < math.inf:
            raise InstanceError(f"bad --grid spec {raw!r}; want min < max, max - min finite and steps >= 1")
        axes.append(grid_axis(lo, hi, steps))
    return (tuple(axes),)


def _csv_cells(values) -> list[str]:
    """Each value as one CSV cell, quoted as csv.writer quotes it."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows([v] for v in values)
    return buffer.getvalue().split("\r\n")[:-1]


def _fiber_str(a) -> str:
    return "(" + ",".join(str(x) for x in a) + ")"


def _require_phi(built: BuiltInstance) -> None:
    if built.phi is None:
        raise InstanceError(
            f"instance {built.name!r}: no periodic-type skew-product on this loop "
            "(the transposed loop matrix has no integer 1-eigenvector)"
        )


def cmd_inspect(built: BuiltInstance, args) -> int:
    tower, lengths = built.tower, built.lengths
    payload = {
        "name": built.name,
        "d": tower.d,
        "top": list(built.loop.start.top),
        "bottom": list(built.loop.start.bottom),
        "loop": list(built.loop.steps),
        "amplification": built.loop.amplification,
        "matrix": [list(row) for row in tower.matrix],
        "q": list(tower.q),
        "words": [list(w) for w in tower.words],
        "positive": is_positive(tower.matrix),
        "pf_eigenvalue": lengths.alpha,
        "pf_lengths": list(lengths.lengths),
        "eigenrank": len(built.eigenbasis),
    }
    lines = [
        f"instance {built.name}: {tower.d} intervals, loop length {len(built.loop.steps)}"
        f" (amplified x{built.loop.amplification})",
        f"  return times q = {tower.q}",
        f"  matrix rows    = {list(map(list, tower.matrix))}",
        f"  PF eigenvalue  = {lengths.alpha:.12f}",
        f"  PF lengths     = {[round(x, 12) for x in lengths.lengths]}",
        f"  1-eigenspace rank of A^T = {len(built.eigenbasis)}",
    ]
    print("\n".join(lines), file=_text_out(args))
    _maybe_json(payload, args)
    return EXIT_OK


def cmd_eigencocycles(built: BuiltInstance, args) -> int:
    basis = built.eigenbasis
    m = len(basis)
    payload = {"name": built.name, "m": m, "basis": [list(v) for v in basis]}
    note = "" if m else " (no periodic-type skew-product on this loop)"
    text = _text_out(args)
    print(f"instance {built.name}: m = {m}{note}", file=text)
    for vec in basis:
        print(f"  eigenvector {list(vec)}", file=text)
    ok = True
    if built.spec.phi is not None:
        ok = check_periodic_type(built.tower.matrix, built.phi)
        payload["explicit_phi_periodic"] = ok
        print(f"  explicit phi fixed by A^T: {ok}", file=text)
    _maybe_json(payload, args)
    return EXIT_OK if ok else EXIT_CHECK_FAILURE


def _maybe_json(payload, args) -> None:
    if args.out or args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)


def _text_out(args):
    """Where the text lines go: stderr when stdout carries the JSON."""
    return sys.stderr if args.format == "json" and not args.out else sys.stdout


def cmd_certify(built: BuiltInstance, args) -> int:
    _require_phi(built)
    try:
        cert = amplify_for_common_prefix(built.loop, built.phi)
    except CertificateInconclusive as exc:
        print(f"instance {built.name}: certificate inconclusive: {exc}", file=_text_out(args))
        return EXIT_INCONCLUSIVE
    payload = dict(cert.to_dict(), name=built.name)
    verdict = "aperiodic (full lattice)" if cert.verdict else "lattice test FAILED"
    print(
        f"instance {built.name}: {verdict}; exponent {cert.exponent}, "
        f"prefix length {cert.prefix_length}, q_min {cert.q_min}",
        file=_text_out(args),
    )
    _maybe_json(payload, args)
    return EXIT_OK if cert.verdict else EXIT_CHECK_FAILURE


CSV_ROWS = 4_096  # most rows in one written string of a CSV table

# '%.15g' % x, byte for byte, for the measure cells, as array code.  A
# positive x in [1e-250, 1e250] with e = floor(log10 x) is scaled to
# y = x * 10**(14 - e) as a double-double: Dekker products of x with
# 10**(14 - e) held as hi + lo, so y is off by less than 1e-15.  Then y
# rounded is the 15-digit mantissa n when it lies in [1e14, 1e15).  The
# digits of n, each followed by a '.', the "0.000" of 0.000ddd and the
# exponent go into one 48-byte row, and a keep-mask per (layout, kept
# digits) picks the value's characters.  Every other x goes to '%.15g'
# itself: not finite, <= 0, out of the range, a log10 off by one (y's
# integer part below 1e14, or n at or above 1e15), or y within 1e-6 of a
# rounding tie, where the error bound could not decide the last digit.
G15_EXPONENTS = range(-251, 251)  # the exponents e the array code handles
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two halves


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _g15_tables():
    """The tables of ``_format_g15``, built on first use from exact integers.

    For each e of G15_EXPONENTS: 10**(14 - e) as scale + rest, the row's
    last 8 bytes ("e", sign, 3 digits, "\\n") and 16 * its layout.  For each
    q in 0 .. 9999: its 4 digits, each followed by a '.', as 8 row bytes,
    and its count of trailing zeros (4 for 0).  The row bytes kept, per
    16 * layout + kept digits.
    """
    scale, scale_rest = [], []
    for e in G15_EXPONENTS:
        num, den = (10 ** (14 - e), 1) if e <= 14 else (1, 10 ** (e - 14))
        hi = num / den  # int / int is correctly rounded
        a, b = hi.as_integer_ratio()
        scale.append(hi)
        scale_rest.append((num * b - a * den) / (den * b))
    tail = b"".join(b"e%c%03d\n\0\0" % (b"-+"[e >= 0], abs(e)) for e in G15_EXPONENTS)
    # layouts 0 .. 18: fixed, e = -4 .. 14; 19 and 20: scientific with two
    # and with three exponent digits
    layout = [e + 4 if -4 <= e < 15 else 19 + (abs(e) >= 100) for e in G15_EXPONENTS]
    q = np.arange(10_000)
    quad = np.full((10_000, 8), ord("."), np.uint8)
    quad[:, ::2] = q[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    trailing_zeros = sum((q % p == 0).astype(np.intp) for p in (10, 100, 1000, 10_000))
    # a row: "0.000" at bytes 0 .. 4; "0", then the digits d0 .. d14 of n
    # at 10 + 2j, each followed by a '.', at 8 .. 39; the tail at 40 .. 47
    keep = np.zeros((21, 16, 48), bool)
    for kind, digits in product(range(21), range(1, 16)):
        row, e = keep[kind, digits], kind - 4
        row[10:10 + 2 * digits:2] = True
        if kind >= 19:  # d.ddde-05, d.ddde+105
            row[11] = digits > 1
            row[40:42] = True
            row[42 + (kind == 19):45] = True
        elif e >= 0:  # ddd.ddd: the integer digits stay
            row[10:12 + 2 * e:2] = True
            row[11 + 2 * e] = digits > e + 1
        else:  # 0.000ddd
            row[:1 - e] = True
        row[45] = True
    return (
        np.array(scale), np.array(scale_rest), np.frombuffer(tail, np.uint64), 16 * np.array(layout),
        quad.view(np.uint64).ravel(), trailing_zeros, keep.reshape(-1, 48),
    )


def _format_g15(x: np.ndarray) -> list[str]:
    """``['%.15g' % v for v in x]`` for a float array."""
    scales, scale_rests, tails, layouts, quad, trailing_zeros, keep = _g15_tables()
    ok = (x >= 1e-250) & (x <= 1e250)  # False for nan
    xs = np.where(ok, x, 1.0)
    k = np.floor(np.log10(xs)).astype(np.intp) - G15_EXPONENTS.start  # e's index in the tables
    scale = scales.take(k)
    (x_hi, x_lo), (s_hi, s_lo) = _split(xs), _split(scale)
    p = xs * scale
    r = ((x_hi * s_hi - p) + x_hi * s_lo + x_lo * s_hi + x_lo * s_lo) + xs * scale_rests.take(k)
    y_hi = p + r  # y = x * 10**(14 - e) = y_hi + y_lo
    y_lo = r - (y_hi - p)
    n = np.floor(y_hi)
    frac = (y_hi - n) + y_lo
    # the low end is checked before rounding: a log10 one too high puts y
    # in [1e14 - 0.5, 1e14), which would round up to 1e14
    ok &= (n >= 1e14) & (np.abs(frac - 0.5) >= 1e-6)
    n += frac > 0.5
    ok &= n < 1e15
    n = np.where(ok, n, 1e14).astype(np.int64)
    k = np.where(ok, k, -G15_EXPONENTS.start)
    hi = n // 10**8
    lo = n - hi * 10**8
    quads = (hi // 10_000, hi % 10_000, lo // 10_000, lo % 10_000)
    rows = np.empty((len(x), 6), np.uint64)
    rows[:, 0] = int.from_bytes(b"0.000\0\0\0", sys.byteorder)
    for j, q in enumerate(quads):
        rows[:, j + 1] = quad.take(q)
    rows[:, 5] = tails.take(k)
    zeros = trailing_zeros.take(quads[3])
    for j in (2, 1, 0):  # past a quad of zeros, the next quad's count
        zeros += (zeros == 4 * (3 - j)) * trailing_zeros.take(quads[j])
    mask = keep.take(layouts.take(k) + 15 - zeros, axis=0).ravel()
    cells = np.compress(mask, rows.view(np.uint8)).tobytes().decode("ascii").split("\n")
    fallback = np.flatnonzero(~ok)
    for i, v in zip(fallback.tolist(), x[fallback].tolist()):
        cells[i] = "%.15g" % v
    return cells[:-1]


def _write_csv(header: list[str], row_blocks, out) -> None:
    """Write the header row, then each string of ``row_blocks`` as it comes."""
    _sink(out).writelines(chain([",".join(_csv_cells(header)) + "\r\n"], row_blocks))


def _table_blocks(built: BuiltInstance, table: MeasureTable):
    """Rows of one maharam table, sorted by (path string, fiber string).

    Edge strings (j,l) are prefix-free, so path strings sort as the tuples
    of their edges' string ranks: the paths come in that order from
    ``path_blocks``, and each block of paths gets its strings as it is
    written.  A path string always holds a comma and never a quote, so its
    CSV cell is the string in quotes.

    A mass depends on its path only through the path's log factor, and a
    block holds few distinct factors: the row tails (fiber cell and mass)
    of each are formatted once, and a path's rows are its head joined with
    its factor's tails.  Equal doubles go through the same add and ``exp``,
    so each mass has the bits a row-by-row writer gives it.  A call to
    ``_format_g15`` gets at most CSV_ROWS values, or one factor's fibers if
    there are more: its scratch arrays grow with the values.
    """
    edge_strs = built.diagram.labels
    fiber_strs = [_fiber_str(a) for a in table.fibers]
    fiber_order = np.argsort(fiber_strs)
    fiber_logs = table.fiber_logs[fiber_order]
    prefix = ",".join(_csv_cells(list(table.psi) + [table.level]))
    fiber_cells = _csv_cells(fiber_strs[j] for j in fiber_order)
    n_fibers = len(fiber_cells)
    step = max(1, CSV_ROWS // n_fibers)  # paths per written string, and factors per _format_g15 call
    rank, edge_objs = np.argsort(np.argsort(edge_strs)), np.array(edge_strs, dtype=object)
    for ids in built.diagram.path_blocks(table.level, rank=rank):
        logs, log_index = np.unique(table.path_logs(ids), return_inverse=True)
        tails = []
        for start in range(0, len(logs), step):
            masses = _format_g15(np.exp(logs[start:start + step, None] + fiber_logs).ravel())
            rows = [f"{cell},{mass}\r\n" for cell, mass in zip(fiber_cells * step, masses)]
            tails += [rows[i:i + n_fibers] for i in range(0, len(rows), n_fibers)]
        paths = edge_objs[ids].sum(axis=1)  # the edge strings of each row, concatenated
        for start in range(0, len(ids), step):
            heads = [f'{prefix},"{path}",' for path in paths[start:start + step].tolist()]
            indices = log_index[start:start + step].tolist()
            yield "".join([head + head.join(tails[u]) for head, u in zip(heads, indices)])


def cmd_maharam(built: BuiltInstance, args) -> int:
    _require_phi(built)
    require_periodic_type(built.tower.matrix, built.phi)
    m = built.phi.m
    level = args.level if args.level is not None else TABLE_LEVEL
    # every table, so every psi, is checked before the first row is written
    tables = [
        build_measure_table(built.floor, psi, level=level) for psi in _parse_psi_args(args, m, built)
    ]
    header = [f"psi_{i + 1}" for i in range(m)] + ["level", "path", "fiber", "measure"]
    rows = (block for table in tables for block in _table_blocks(built, table))
    _write_csv(header, rows, args.out)
    return EXIT_OK


def _profile_blocks(profile: GridProfile):
    """Rows of one continuity grid, cylinder-major, points in product(*axes) order."""
    axes = [list(map(str, axis)) for axis in profile.axes]  # each coordinate formatted once
    psi_strs = np.array([",".join(point) for point in product(*axes)], dtype=object)
    n_cyl = profile.masses.shape[1]
    heads = np.array([f"{profile.step},{c}" for c in range(n_cyl)], dtype=object)  # str once per cylinder
    masses, deltas = profile.masses.T.ravel(), profile.deltas.T.ravel()
    for start in range(0, masses.size, CSV_ROWS):
        rows = np.arange(start, min(start + CSV_ROWS, masses.size))
        c, i = np.divmod(rows, len(psi_strs))
        fields = zip(
            heads[c].tolist(), psi_strs[i].tolist(), _format_g15(masses[rows]), _format_g15(deltas[rows])
        )
        yield "".join([f"{head},{psi},{mass},{delta}\r\n" for head, psi, mass, delta in fields])


def cmd_continuity(built: BuiltInstance, args) -> int:
    _require_phi(built)
    require_periodic_type(built.tower.matrix, built.phi)
    m = built.phi.m
    level = args.level if args.level is not None else CONTINUITY_LEVEL
    grids = _parse_grid_args(args, m) or dyadic_grids(m)
    cylinders = default_cylinder_family(built.diagram, m, level=level)
    profiles = continuity_profile(built.floor, cylinders, grids)
    if args.format == "json":
        payload = [
            {"step": p.step, "modulus": p.modulus, "points": p.masses.shape[0]}
            for p in profiles
        ]
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        header = (
            ["grid_step", "cylinder_id"]
            + [f"psi_{i + 1}" for i in range(m)]
            + ["measure", "adjacent_delta"]
        )
        rows = (block for profile in profiles for block in _profile_blocks(profile))
        _write_csv(header, rows, args.out)
    moduli = ", ".join(f"{p.modulus:.3e}" for p in profiles)
    print(f"observed adjacent-grid moduli: {moduli}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(built: BuiltInstance, args) -> int:
    _require_phi(built)
    seed = args.seed if args.seed is not None else built.spec.seed
    report, text = [], _text_out(args)
    for result in run_verification(built, seed=seed):  # each line as its check ends
        residual = "" if result.residual is None else f" residual={result.residual:.3e}"
        print(f"{result.status.upper():6s} {result.name}{residual} ({result.runtime:.2f}s)", file=text, flush=True)
        report.append(result)
    payload = {
        "instance": built.name,
        "seed": seed,
        "checks": [dict(asdict(r), runtime=round(r.runtime, 3)) for r in report],
    }
    _maybe_json(payload, args)
    statuses = {r.status for r in report}
    if "fail" in statuses:
        return EXIT_CHECK_FAILURE
    if "inconclusive" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


SUBCOMMANDS = {  # name: (help, the options it reads besides --instance, its --format choices, handler)
    "inspect": ("tower data, positivity and Perron-Frobenius lengths", ["--out"], ["json"], cmd_inspect),
    "eigencocycles": (
        "integer 1-eigenvectors of the transposed loop matrix", ["--out"], ["json"], cmd_eigencocycles
    ),
    "certify": (
        "aperiodicity certificate via the common-prefix construction", ["--out"], ["json"], cmd_certify
    ),
    "maharam": (
        "cylinder measure table (CSV) for given parameters", ["--psi", "--level", "--out"], [], cmd_maharam
    ),
    "continuity": (
        "measure profile over a parameter grid", ["--grid", "--level", "--out"], ["json", "csv"], cmd_continuity
    ),
    "verify": ("run the whole verification suite", ["--seed", "--out"], ["json"], cmd_verify),
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # the commands see args.out as the open file (or None)
        with _open_out(args.out) as args.out:
            built = build_instance(load_instance(args.instance))
            code = args.run(built, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # later writes, the one at exit too, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError) as exc:  # InstanceError, usage errors, an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, MemoryError) as exc:
        print(f"inconclusive: {str(exc) or repr(exc)}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
