"""Batch command-line front end.

Every command prints greppable ``KEY: value`` lines.  Exit codes:

* 0: success, including a CONSISTENT audit;
* 1: a property is refuted, a verification fails, or well-formed input fails
  an operation's hypothesis (a degenerate quotient, a non-nilpotent algebra,
  an operator family with no common kernel vector);
* 2: malformed input: bad files, names, vectors, rationals or parameters,
  and files that cannot be read or written, stdout included: a reader that
  closes it early (``| head``) gets exit 2 and nothing on stderr;
* 3: an internal check failed (a bug, not a property of the input).

Each command builds its whole report, and writes any ``--output`` file, before
anything is printed: a failure prints exactly one ``ERROR:`` line, and a run
prints nothing until its report is complete.  Identical command lines with the
same seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import redirect_stdout

from gonil.catalog import (
    EXAMPLE_NAMES,
    INVARIANTS,
    CatalogError,
    PAPER_BASIS_NAMES,
    build_example,
    verify_paper_example,
)
from gonil.double_ext import ReductionError, extend2, reduce as reduce_algebra
from gonil.go_engine import (
    GOEngineError,
    check_audit_parameters,
    go_certificate_at,
    go_random_audit,
    linear_go_certificate,
    necessary_condition_check,
    tangent_vector,
)
from gonil.io import (
    FormatError,
    load_algebra,
    load_extension_data,
    parse_rational,
    save_algebra,
)
from gonil.isotropy import isotropy_algebra
from gonil.lie import EngelError, NotNilpotentError
from gonil.linalg import DimensionMismatch, fmt_vec
from gonil.metric import MetricLieAlgebra, PreconditionError

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_MALFORMED = 2
EXIT_INTERNAL = 3

MAX_SAMPLES = 100_000
MAX_BOUND = 1_000_000
MAX_NORMAL_FORM_M = 64


def _resolve_algebra(spec: str) -> MetricLieAlgebra:
    if spec.startswith("catalog:"):
        return build_example(spec[len("catalog:") :]).algebra
    m, _names = load_algebra(spec)
    return m


def _parse_vector(text: str):
    try:
        return [parse_rational(part) for part in text.split(",")]
    except FormatError as exc:
        raise FormatError(f"bad vector: {exc}") from exc


def _matrix_lines(label, matrices):
    rows = [(i, r, row) for i, matrix in enumerate(matrices) for r, row in enumerate(matrix.rows)]
    return [f"{label}[{i}].ROW[{r}]: {fmt_vec(row)}" for i, r, row in rows]


def _save(path, algebra, names=None):
    """Write ``algebra`` to ``path`` (when given) and return the report's ``WROTE`` line."""
    if not path:
        return []
    save_algebra(path, algebra, names)
    return [f"WROTE: {path}"]


def cmd_check(args):
    _resolve_algebra(args.algebra)
    return ["STATUS: OK"], EXIT_OK


def cmd_invariants(args):
    m = _resolve_algebra(args.algebra)
    values = [(label, invariant(m)) for label, invariant in INVARIANTS.values()]
    return [f"{label}: {fmt_vec(v) if isinstance(v, tuple) else v}" for label, v in values], EXIT_OK


def cmd_isotropy(args):
    iso = isotropy_algebra(_resolve_algebra(args.algebra))
    return [f"ISOTROPY_DIM: {iso.dim}", *_matrix_lines("BASIS", iso.basis)], EXIT_OK


def cmd_go(args):
    if args.samples > MAX_SAMPLES:
        raise FormatError(f"--samples is at most {MAX_SAMPLES}")
    if args.bound > MAX_BOUND:
        raise FormatError(f"--bound is at most {MAX_BOUND}")
    check_audit_parameters(args.samples, args.bound)
    m = _resolve_algebra(args.algebra)
    iso = isotropy_algebra(m)
    report = go_random_audit(m, iso, args.samples, args.seed, args.bound)
    lines = [f"ALGEBRA: {args.algebra}", f"ISOTROPY_DIM: {iso.dim}", *report.lines()]
    return lines, EXIT_OK if report.verdict == "CONSISTENT" else EXIT_REFUTED


def cmd_go_at(args):
    m = _resolve_algebra(args.algebra)
    t = tangent_vector(m, _parse_vector(args.vector))
    cert = go_certificate_at(m, isotropy_algebra(m), t)
    if cert is None:
        return [f"T: {fmt_vec(t)}", "RESULT: INFEASIBLE"], EXIT_REFUTED
    return [f"T: {fmt_vec(t)}", "RESULT: FEASIBLE", f"A_COEFFS: {fmt_vec(cert.A_coeffs)}", f"K: {cert.k}"], EXIT_OK


def cmd_linear_go(args):
    m = _resolve_algebra(args.algebra)
    iso = isotropy_algebra(m)
    cert = linear_go_certificate(m, iso)
    if cert is None:
        note = "NOTE: only linear witnesses with k = 0 are ruled out"
        return [f"ISOTROPY_DIM: {iso.dim}", "RESULT: INFEASIBLE", note], EXIT_REFUTED
    rows = [f"L[{j}]: {fmt_vec(row)}" for j, row in enumerate(cert.coeffs.rows)]
    return [f"ISOTROPY_DIM: {iso.dim}", "RESULT: FEASIBLE", *rows], EXIT_OK


def cmd_reduce(args):
    result = reduce_algebra(_resolve_algebra(args.algebra))
    quotient = [f"QUOTIENT_DIM: {result.m0.dim}", f"QUOTIENT_SIGNATURE: {fmt_vec(result.m0.form.signature())}"]
    complement = [f"COMPLEMENT[{i}]: {fmt_vec(row)}" for i, row in enumerate(result.complement_rows.rows)]
    return [*result.witness.lines(), *quotient, *complement, *_save(args.output, result.m0)], EXIT_OK


def cmd_extend(args):
    m = _resolve_algebra(args.algebra)
    extended = extend2(m, load_extension_data(args.data))
    lines = [f"EXTENDED_DIM: {extended.dim}", f"EXTENDED_SIGNATURE: {fmt_vec(extended.form.signature())}"]
    return lines + _save(args.output, extended), EXIT_OK


def cmd_catalog(args):
    example = build_example(args.name)
    names = PAPER_BASIS_NAMES if args.name == "paper_2_3" else None
    wrote = _save(args.output or f"{args.name}.json", example.algebra, names)
    return [f"NAME: {example.name}", f"DIM: {example.algebra.dim}", *wrote], EXIT_OK


def cmd_verify_paper(args):
    report = verify_paper_example()
    return report.lines(), EXIT_OK if report.passed else EXIT_REFUTED


def cmd_necessary(args):
    report = necessary_condition_check(_resolve_algebra(args.algebra))
    return report.lines(), EXIT_OK if report.skipped or report.passed else EXIT_REFUTED


def cmd_normal_forms(args):
    from gonil.normal_forms import iwasawa_nilpotent_basis, maximal_abelian_family

    if args.m > MAX_NORMAL_FORM_M:
        raise FormatError(f"--m is at most {MAX_NORMAL_FORM_M}")
    if args.family and args.q != 2:
        raise FormatError("--family needs --q 2")
    if args.family != 2 and (args.u1 is not None or args.v1 is not None):
        raise FormatError("--u1 and --v1 need --family 2")
    u1, v1 = [None if x is None else parse_rational(x) for x in (args.u1, args.v1)]
    family = iwasawa_nilpotent_basis(args.q, args.m)
    lines = [f"SIGNATURE: {family.signature[0]},{family.signature[1]}", f"AMBIENT: {family.dim_ambient}"]
    lines.append(f"FAMILY_DIM: {family.dim}")
    generators = family.generators
    if args.family:
        generators = maximal_abelian_family(args.family, args.m, u1, v1)
        lines += [f"ABELIAN_FAMILY: {args.family}", f"ABELIAN_DIM: {len(generators)}", "ABELIAN_VERIFIED: yes"]
    return lines + _matrix_lines("GENERATOR", generators), EXIT_OK


ALGEBRA = ("algebra", dict(help="path to an algebra file or catalog:NAME"))

# name -> (command, help, argument specs); each command maps its parsed arguments to (report lines, exit code)
COMMANDS = {
    "check": (cmd_check, "validate an algebra file", [ALGEBRA]),
    "invariants": (cmd_invariants, "print series dims, step, signatures", [ALGEBRA]),
    "isotropy": (cmd_isotropy, "print the isotropy algebra basis", [ALGEBRA]),
    "go": (cmd_go, "randomized geodesic-orbit audit", [
        ALGEBRA,
        ("--samples", dict(type=int, default=200, help=f"number of samples, at most {MAX_SAMPLES}")),
        ("--seed", dict(type=int, required=True)),
        ("--bound", dict(type=int, default=10, help=f"entries drawn from [-bound, bound], at most {MAX_BOUND}")),
    ]),
    "go-at": (cmd_go_at, "certificate at one tangent vector", [
        ALGEBRA,
        ("--vector", dict(required=True, help='comma-separated rationals; --vector=-1,0,2/3 keeps a leading minus')),
    ]),
    "linear-go": (cmd_linear_go, "solve for a linear certificate", [ALGEBRA]),
    "reduce": (cmd_reduce, "double-extension quotient of a degenerate algebra", [
        ALGEBRA,
        ("--output", dict(help="write the quotient algebra file here")),
    ]),
    "extend": (cmd_extend, "apply a two-dimensional extension", [
        ALGEBRA,
        ("--data", dict(required=True, help="extension data JSON file")),
        ("--output", dict(help="write the extended algebra file here")),
    ]),
    "catalog": (cmd_catalog, "write a built-in example to a file", [
        ("name", dict(choices=EXAMPLE_NAMES)),
        ("--output", dict()),
    ]),
    "verify-paper": (cmd_verify_paper, "run the full 12-dim example verification", []),
    "necessary": (cmd_necessary, "polarized bracket-orthogonality identities on n'", [ALGEBRA]),
    "normal-forms": (cmd_normal_forms, "nilpotent triangular families", [
        ("--q", dict(type=int, choices=(1, 2), required=True)),
        ("--m", dict(type=int, required=True, help=f"matrix size, at most {MAX_NORMAL_FORM_M}")),
        ("--family", dict(type=int, choices=(1, 2, 3))),
        ("--u1", dict(help='rational, e.g. "1/2"')),
        ("--v1", dict(help='rational, e.g. "3"')),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gonil",
        description="Exact certification of metric nilpotent Lie algebras: "
        "geodesic-orbit checks and double-extension reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, specs) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flag, options in specs:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    """Parse, run, then write the whole report at once: the only writer to stdout."""
    try:
        try:
            with redirect_stdout(io.StringIO()) as help_text:  # argparse would drop a failed write
                args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help (exit 0) or a usage error (exit 2, message on stderr)
            report, code = help_text.getvalue(), exc.code
        else:
            lines, code = _run(args)
            report = "".join(f"{line}\n" for line in lines)
        if sys.stdout is None:  # fd 1 was closed at start (`gonil ... >&-`): like a closed pipe, nowhere to write
            return EXIT_MALFORMED
        sys.stdout.write(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say `gonil ... | head`): point it at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_MALFORMED
    return code


def _run(args):
    try:
        return args.fn(args)
    except (FormatError, CatalogError, DimensionMismatch, GOEngineError, OSError) as exc:
        # bad or unreadable files, bad names, bad vectors/parameters: malformed input
        return [f"ERROR: {exc}"], EXIT_MALFORMED
    except (ReductionError, PreconditionError, NotNilpotentError, EngelError) as exc:
        # well-formed input failing a property or an operation's hypothesis
        return [f"ERROR: {exc}"], EXIT_REFUTED
    except ValueError as exc:
        return [f"ERROR: {exc}"], EXIT_MALFORMED
    except AssertionError as exc:
        # every internal check raises AssertionError("internal: ...")
        return [f"ERROR: {exc}"], EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
