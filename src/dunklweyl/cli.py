"""Command-line front end: normal forms, verification, spectra, listings.

Exit codes: 0 all requested checks pass, 1 a verification failed (an
ArithmeticError: for spectrum, a state that fails its certificate), 2
usage, parse or evaluation error.  Output is deterministic: repeated
identical invocations emit byte-identical text, and JSON reports use the
fixed key set {command, dims, mu_mode, results, status}, key-sorted.
Timings are kept out of reports for exactly that reason.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from typing import List, Optional, Sequence, Tuple

from . import relations, states
from .dsl import parse_eval


# Longest a --mu value may be, in characters with any exponent written
# out (1e3 counts as 1000): the exact arithmetic of a request grows with
# the size of its values.
MAX_MU_LENGTH = 100


def _length(text: str) -> int:
    """Characters of a deformation value with its exponent written out."""
    mantissa, _, exponent = text.lower().partition("e")
    try:
        return len(mantissa) + abs(int(exponent or 0))
    except ValueError:
        # Too long for int, so too long here; else Fraction refuses it.
        return len(text)


def _mu_values(text: str) -> Tuple[Fraction, ...]:
    # argparse prints the message of an ArgumentTypeError; for any other
    # error it names this function instead.
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise argparse.ArgumentTypeError(
            f"empty deformation value in {text!r}")
    if any(_length(p) > MAX_MU_LENGTH for p in parts):
        raise argparse.ArgumentTypeError(
            f"a deformation value is longer than {MAX_MU_LENGTH} characters "
            "with its exponent written out")
    values = []
    for p in parts:
        try:
            values.append(Fraction(p))
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(
                f"zero denominator in deformation value {p!r}") from None
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"deformation value {p!r} is not a rational number") from None
    return tuple(values)


def _mu_mode(mu: Optional[Tuple[Fraction, ...]]) -> str:
    if mu is None:
        return "parametric"
    return "numeric:" + ",".join(str(v) for v in mu)


# (exit code, status, results, text lines); main() builds the report.
Outcome = Tuple[int, str, list, List[str]]


def _cmd_nf(args: argparse.Namespace) -> Outcome:
    op = parse_eval(args.expr, args.dims)
    if args.mu is not None:
        op = op.substitute_params(args.mu)
    normal = str(op)
    return 0, "ok", [{"expr": args.expr, "normal_form": normal}], [normal]


def _cmd_verify(args: argparse.Namespace) -> Outcome:
    if args.family == "all":
        if args.perturb:
            raise ValueError("--perturb needs a single family")
        family_ids = relations.FAMILIES
    else:
        family_ids = (args.family,)
    reports = [
        relations.check(fid, mu_values=args.mu, perturb=args.perturb)
        for fid in family_ids
    ]
    lines: List[str] = []
    results = []
    for rep in reports:
        flag = "ok  " if rep.passed else "FAIL"
        lines.append(f"{flag} {rep.family:<18} {len(rep.identities):3d} identities")
        rows = []
        for ir in rep.identities:
            if not ir.passed:
                lines.append(f"       residual ({ir.residual_terms} terms): "
                             f"{ir.label}")
            rows.append({
                "label": ir.label,
                "passed": ir.passed,
                "residual_terms": ir.residual_terms,
                "residual": "0" if ir.passed else str(ir.residual),
            })
        results.append({
            "family": rep.family,
            "passed": rep.passed,
            "identities": rows,
        })
    status = "pass" if all(rep.passed for rep in reports) else "fail"
    lines.append(f"status: {status}")
    return (0 if status == "pass" else 1), status, results, lines


def _cmd_spectrum(args: argparse.Namespace) -> Outcome:
    table = states.spectrum_table(args.dims, args.mu, args.levels)
    lines = ["level  energy  degeneracy"]
    rows = []
    for row in table.rows:
        energy = str(row.energy.as_fraction())
        lines.append(f"{row.level:<6d} {energy:<7} {row.degeneracy}")
        rows.append({
            "level": row.level,
            "energy": energy,
            "degeneracy": row.degeneracy,
        })
    if not table.admissible:
        lines.append("warning: inadmissible deformation values "
                     "(some ladder coefficient c_k <= 0)")
    return 0, "ok", [{"admissible": table.admissible, "rows": rows}], lines


def _cmd_list_relations(args: argparse.Namespace) -> Outcome:
    families = relations.REGISTRY.values()
    lines = [f"{fam.id}: {fam.description}" for fam in families]
    results = [{"family": fam.id, "description": fam.description}
               for fam in families]
    return 0, "ok", results, lines


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing keeps no state in the parser, so
    # in-process callers of main() need not pay for it on every call.
    parser = argparse.ArgumentParser(
        prog="dunklweyl",
        description="Exact operator algebra of the deformed oscillator: "
                    "normal forms, identity verification, spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    nf = sub.add_parser("nf", help="normal form of an operator expression")
    nf.add_argument("expr")
    nf.add_argument("--dims", type=int, default=2)
    nf.add_argument("--mu", type=_mu_values, default=None,
                    help="substitute exact rational deformation values v1,v2,..")
    nf.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="check an identity family")
    verify.add_argument("family", help="family id or 'all'")
    group = verify.add_mutually_exclusive_group()
    group.add_argument("--parametric", action="store_true",
                       help="symbolic deformation parameters (default)")
    group.add_argument("--mu", type=_mu_values, default=None,
                       help="exact rational deformation values v1,v2,..; "
                            "a family on n variables reads the first n "
                            "and cycles a shorter list")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--perturb", action="store_true",
                        help="negative control: break one structure constant")

    spectrum = sub.add_parser("spectrum", help="exact energy levels")
    spectrum.add_argument("--dims", type=int, choices=(1, 2), required=True)
    spectrum.add_argument("--mu", type=_mu_values, required=True)
    spectrum.add_argument("--levels", type=int, default=6)
    spectrum.add_argument("--format", choices=("text", "json"), default="text")

    listing = sub.add_parser("list-relations",
                             help="list identity families")
    listing.add_argument("--format", choices=("text", "json"), default="text")
    return parser


_DISPATCH = {
    "nf": _cmd_nf,
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "list-relations": _cmd_list_relations,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, status, results, lines = _DISPATCH[args.command](args)
    except (ValueError, KeyError, ArithmeticError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1 if isinstance(exc, ArithmeticError) else 2
    try:
        if args.format == "json":
            # verify and list-relations take no --dims; list-relations
            # takes no --mu either, so it reports "parametric".
            report = {
                "command": args.command,
                "dims": getattr(args, "dims", None),
                "mu_mode": _mu_mode(getattr(args, "mu", None)),
                "results": results,
                "status": status,
            }
            print(json.dumps(report, sort_keys=True, indent=2))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (as with `| head`).  Point stdout at the null
        # device so that the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
