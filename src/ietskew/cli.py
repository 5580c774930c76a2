"""Batch command line: inspect | eigencocycles | certify | maharam | continuity | verify.

Every command takes --instance (a file path or a packaged instance name).
Exit codes: 0 ok, 1 validation error, 2 check failure, 3 inconclusive
(a bound hit before a result, or memory ran out), each with one line on
stderr; a closed stdout (``| head``) ends the run quietly.  Output rows
are written in a canonical order so runs are reproducible given
(instance file, seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .algebra import zero_vector
from .cocycles import CertificateInconclusive, amplify_for_common_prefix
from .instances import BuiltInstance, InstanceError, build_instance, load_instance
from .maharam import (
    build_measure_table,
    continuity_profile,
    default_cylinder_family,
    dyadic_grids,
)
from .verification import run_verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILURE = 2
EXIT_INCONCLUSIVE = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ietskew",
        description=(
            "Periodic-type skew-products over interval exchanges: towers, "
            "eigencocycles, aperiodicity certificates and Maharam measures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("inspect", "tower data, positivity and Perron-Frobenius lengths"),
        ("eigencocycles", "integer 1-eigenvectors of the transposed loop matrix"),
        ("certify", "aperiodicity certificate via the common-prefix construction"),
        ("maharam", "cylinder measure table for given parameters"),
        ("continuity", "measure profile over a parameter grid"),
        ("verify", "run the whole verification suite"),
    ]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--instance", required=True, help="instance file or packaged name")
        cmd.add_argument(
            "--psi",
            action="append",
            default=None,
            help="comma-separated parameter vector; repeatable",
        )
        cmd.add_argument(
            "--grid",
            action="append",
            default=None,
            help="min:max:steps grid axis; repeat per coordinate",
        )
        cmd.add_argument("--level", type=int, default=None, help="working depth")
        cmd.add_argument("--seed", type=int, default=None, help="sampling seed")
        cmd.add_argument("--out", default=None, help="write output to this path")
        cmd.add_argument("--format", choices=("json", "csv"), default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
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
        "positive": all(x > 0 for row in tower.matrix for x in row),
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
    from .skew import check_periodic_type, eigencocycles

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


def cmd_maharam(built: BuiltInstance, args) -> int:
    _require_phi(built)
    if args.format == "json":
        raise InstanceError("measure tables are emitted as CSV")
    m = built.phi.m
    level = args.level if args.level is not None else 5
    psis = _parse_psi_args(args, m, built)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [f"psi_{i + 1}" for i in range(m)] + ["level", "path", "fiber", "measure"]
    )
    edge_strs = [str(e) for e in built.diagram.edges()]
    for psi in psis:
        table = build_measure_table(built.diagram, built.phi, psi, level=level)
        # rows sorted by (path string, fiber string): the product of both sorts
        path_strs = ["".join(edge_strs[i] for i in row) for row in table.path_ids.tolist()]
        fiber_strs = [_fiber_str(a) for a in table.fibers]
        path_order, fiber_order = np.argsort(path_strs), np.argsort(fiber_strs)
        prefix = ",".join(_csv_cells(list(psi) + [level]))
        path_cells = _csv_cells(path_strs[i] for i in path_order)
        fiber_cells = _csv_cells(fiber_strs[j] for j in fiber_order)
        masses = table.masses[np.ix_(path_order, fiber_order)].tolist()
        buffer.writelines(
            f"{prefix},{path_cell},{fiber_cell},{value:.15g}\r\n"
            for path_cell, row in zip(path_cells, masses)
            for fiber_cell, value in zip(fiber_cells, row)
        )
    _emit(buffer.getvalue(), args.out)
    return EXIT_OK


def cmd_continuity(built: BuiltInstance, args) -> int:
    _require_phi(built)
    m = built.phi.m
    level = args.level if args.level is not None else 4
    grids = _parse_grid_args(args, m) or dyadic_grids(m, refinements=3)
    cylinders = default_cylinder_family(built.diagram, m, level=level)
    profiles = continuity_profile(built.diagram, built.phi, cylinders, grids)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["grid_step", "cylinder_id"]
        + [f"psi_{i + 1}" for i in range(m)]
        + ["measure", "adjacent_delta"]
    )
    for profile in profiles:
        # rows are point-major in increasing psi order: write them cylinder-major
        n_cyl = len(cylinders)
        psi_strs = [",".join(map(str, row["psi"])) for row in profile.rows[::n_cyl]]
        buffer.writelines(
            f"{profile.step},{c},{psi_str},{row['measure']:.15g},{row['adjacent_delta']:.15g}\r\n"
            for c in range(n_cyl)
            for psi_str, row in zip(psi_strs, profile.rows[c::n_cyl])
        )
    if args.format == "json":
        payload = [
            {"step": p.step, "modulus": p.modulus, "points": len(p.rows)}
            for p in profiles
        ]
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(buffer.getvalue(), args.out)
    moduli = ", ".join(f"{p.modulus:.3e}" for p in profiles)
    print(f"observed adjacent-grid moduli: {moduli}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(built: BuiltInstance, args) -> int:
    _require_phi(built)
    seed = args.seed if args.seed is not None else built.spec.seed
    report = run_verification(built, seed=seed)
    for result in report:
        residual = "" if result.residual is None else f" residual={result.residual:.3e}"
        print(f"{result.status.upper():6s} {result.name}{residual} ({result.runtime:.2f}s)")
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
    args = _parser().parse_args(argv)
    try:
        spec = load_instance(args.instance)
        built = build_instance(spec)
        code = COMMANDS[args.command](built, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # later writes, the one at exit too, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ValueError as exc:  # InstanceError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, MemoryError) as exc:
        print(f"inconclusive: {str(exc) or repr(exc)}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
