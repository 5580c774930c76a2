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
import io
import json
import os
import sys
from itertools import chain, product

import numpy as np

from . import bratteli
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
)
from .skew import check_periodic_type, eigencocycles, require_periodic_type
from .verification import run_verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILURE = 2
EXIT_INCONCLUSIVE = 3


# the options each command reads, besides --instance, and its --format choices
OPTIONS = {
    "--psi": dict(action="append", help="comma-separated parameter vector; repeatable"),
    "--grid": dict(action="append", help="min:max:steps grid axis; repeat per coordinate"),
    "--level": dict(type=int, help="working depth"),
    "--seed": dict(type=int, help="sampling seed"),
    "--out": dict(help="write output to this path"),
}
SUBCOMMANDS = [
    ("inspect", "tower data, positivity and Perron-Frobenius lengths", ["--out"], ["json"]),
    ("eigencocycles", "integer 1-eigenvectors of the transposed loop matrix", ["--out"], ["json"]),
    ("certify", "aperiodicity certificate via the common-prefix construction", ["--out"], ["json"]),
    ("maharam", "cylinder measure table (CSV) for given parameters", ["--psi", "--level", "--out"], []),
    ("continuity", "measure profile over a parameter grid", ["--grid", "--level", "--out"], ["json", "csv"]),
    ("verify", "run the whole verification suite", ["--seed", "--out"], ["json"]),
]


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
    for name, helptext, flags, formats in SUBCOMMANDS:
        cmd = sub.add_parser(name, help=helptext)
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
    writes (``_start``): a command that stops early leaves an old file as
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


def _start(out):
    """The open --out file, emptied for the command's output."""
    if out.seekable():
        out.seek(0)
        out.truncate()
    return out


def _emit(text: str, out) -> None:
    if out:
        _start(out).write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


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
        except ValueError:
            raise InstanceError(f"bad --grid spec {raw!r}; want min:max:steps") from None
        if steps < 1 or hi <= lo:
            raise InstanceError(f"bad --grid spec {raw!r}")
        axes.append(tuple(lo + (hi - lo) * i / steps for i in range(steps + 1)))
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
        "eigenrank": built.eigenrank,
    }
    lines = [
        f"instance {built.name}: {tower.d} intervals, loop length {len(built.loop.steps)}"
        f" (amplified x{built.loop.amplification})",
        f"  return times q = {tower.q}",
        f"  matrix rows    = {list(map(list, tower.matrix))}",
        f"  PF eigenvalue  = {lengths.alpha:.12f}",
        f"  PF lengths     = {[round(x, 12) for x in lengths.lengths]}",
        f"  1-eigenspace rank of A^T = {built.eigenrank}",
    ]
    print("\n".join(lines))
    _maybe_json(payload, args)
    return EXIT_OK


def cmd_eigencocycles(built: BuiltInstance, args) -> int:
    m, basis = eigencocycles(built.tower.matrix)
    payload = {"name": built.name, "m": m, "basis": [list(v) for v in basis]}
    if m == 0:
        print(f"instance {built.name}: m = 0 "
              "(no periodic-type skew-product on this loop)")
        _maybe_json(payload, args)
        return EXIT_OK
    print(f"instance {built.name}: m = {m}")
    for vec in basis:
        print(f"  eigenvector {list(vec)}")
    if built.spec.phi is not None:
        ok = check_periodic_type(built.tower.matrix, built.phi)
        payload["explicit_phi_periodic"] = ok
        print(f"  explicit phi fixed by A^T: {ok}")
        if not ok:
            _maybe_json(payload, args)
            return EXIT_CHECK_FAILURE
    _maybe_json(payload, args)
    return EXIT_OK


def _maybe_json(payload, args) -> None:
    if args.out or args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)


def cmd_certify(built: BuiltInstance, args) -> int:
    _require_phi(built)
    try:
        cert = amplify_for_common_prefix(built.loop, built.phi)
    except CertificateInconclusive as exc:
        print(f"instance {built.name}: certificate inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
    payload = dict(cert.to_dict(), name=built.name)
    verdict = "aperiodic (full lattice)" if cert.verdict else "lattice test FAILED"
    print(
        f"instance {built.name}: {verdict}; exponent {cert.exponent}, "
        f"prefix length {cert.prefix_length}, q_min {cert.q_min}"
    )
    _maybe_json(payload, args)
    return EXIT_OK if cert.verdict else EXIT_CHECK_FAILURE


def _csv_blocks(n_rows: int, block):
    """CSV text of rows 0 .. n_rows - 1, one string per block of at most
    PATH_BLOCK rows.

    ``block(rows)`` takes an index array of consecutive rows and returns a
    list of their %-templates, then one list per template field holding its
    value in each row; a block is one % call on the joined templates with
    the fields interleaved row by row.
    """
    for start in range(0, n_rows, bratteli.PATH_BLOCK):
        templates, *fields = block(np.arange(start, min(start + bratteli.PATH_BLOCK, n_rows)))
        args = [None] * (len(templates) * len(fields))
        for k, field in enumerate(fields):
            args[k::len(fields)] = field
        yield "".join(templates) % tuple(args)


def _write_csv(header: list[str], row_blocks, out) -> None:
    """Write the header row, then each string of ``row_blocks`` as it comes,
    to the open file ``out`` or to stdout."""
    chunks = chain([",".join(_csv_cells(header)) + "\r\n"], row_blocks)
    if out:
        _start(out).writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _table_blocks(built: BuiltInstance, psi, table: MeasureTable):
    """Rows of one maharam table, psi as given, sorted by (path string, fiber string).

    Edge strings (j,l) are prefix-free, so path strings sort as the tuples
    of their edges' string ranks: the paths come in that order from
    ``path_blocks``, and each block of paths gets its strings as it is
    written.  A path string always holds a comma and never a quote, so its
    CSV cell is the string in quotes.
    """
    edge_strs = built.diagram.labels
    fiber_strs = [_fiber_str(a) for a in table.fibers]
    fiber_order = np.argsort(fiber_strs)
    fiber_logs = table.fiber_logs[fiber_order]
    prefix = ",".join(_csv_cells(list(psi) + [table.level]))
    templates = np.array(
        [f'{prefix},"%s",{cell},%.15g\r\n' for cell in _csv_cells(fiber_strs[j] for j in fiber_order)],
        dtype=object,
    )
    rank, edge_objs = np.argsort(np.argsort(edge_strs)), np.array(edge_strs, dtype=object)
    for ids in built.diagram.path_blocks(table.level, rank=rank):
        paths = edge_objs[ids].sum(axis=1)  # the edge strings of each row, concatenated
        path_logs = table.path_logs(ids)

        def block(rows):
            p, f = np.divmod(rows, len(templates))
            masses = np.exp(path_logs[p] + fiber_logs[f])
            return templates[f].tolist(), paths[p].tolist(), masses.tolist()

        yield from _csv_blocks(len(ids) * len(templates), block)


def cmd_maharam(built: BuiltInstance, args) -> int:
    _require_phi(built)
    require_periodic_type(built.tower.matrix, built.phi)
    m = built.phi.m
    level = args.level if args.level is not None else TABLE_LEVEL
    # every table, so every psi, is checked before the first row is written
    tables = [
        (psi, build_measure_table(built.floor, psi, level=level))
        for psi in _parse_psi_args(args, m, built)
    ]
    header = [f"psi_{i + 1}" for i in range(m)] + ["level", "path", "fiber", "measure"]
    rows = (block for psi, table in tables for block in _table_blocks(built, psi, table))
    _write_csv(header, rows, args.out)
    return EXIT_OK


def _profile_blocks(profile: GridProfile):
    """Rows of one continuity grid, cylinder-major, points in product(*axes) order."""
    psi_strs = np.array([",".join(map(str, point)) for point in product(*profile.axes)], dtype=object)
    n_cyl = profile.masses.shape[1]
    templates = np.array([f"{profile.step},{c},%s,%.15g,%.15g\r\n" for c in range(n_cyl)], dtype=object)
    masses, deltas = profile.masses.T.ravel(), profile.deltas.T.ravel()

    def block(rows):
        c, i = np.divmod(rows, len(psi_strs))
        return templates[c].tolist(), psi_strs[i].tolist(), masses[rows].tolist(), deltas[rows].tolist()

    return _csv_blocks(masses.size, block)


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
    report = []
    for result in run_verification(built, seed=seed):  # each line as its check ends
        residual = "" if result.residual is None else f" residual={result.residual:.3e}"
        print(f"{result.status.upper():6s} {result.name}{residual} ({result.runtime:.2f}s)", flush=True)
        report.append(result)
    payload = {
        "instance": built.name,
        "seed": seed,
        "checks": [r.to_dict() for r in report],
    }
    _maybe_json(payload, args)
    statuses = {r.status for r in report}
    if "fail" in statuses:
        return EXIT_CHECK_FAILURE
    if "inconclusive" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


COMMANDS = {
    "inspect": cmd_inspect,
    "eigencocycles": cmd_eigencocycles,
    "certify": cmd_certify,
    "maharam": cmd_maharam,
    "continuity": cmd_continuity,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # the commands see args.out as the open file (or None)
        with _open_out(args.out) as args.out:
            spec = load_instance(args.instance)
            built = build_instance(spec)
            code = COMMANDS[args.command](built, args)
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
