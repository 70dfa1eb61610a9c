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

Errors print one ``ERROR:`` line.  Identical command lines with the same seed
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import os
import sys

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
    go_certificate_at,
    go_random_audit,
    linear_go_certificate,
    necessary_condition_check,
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


def cmd_check(args) -> int:
    _resolve_algebra(args.algebra)
    print("STATUS: OK")
    return EXIT_OK


def cmd_invariants(args) -> int:
    m = _resolve_algebra(args.algebra)
    for label, invariant in INVARIANTS.values():
        value = invariant(m)
        print(f"{label}: {fmt_vec(value) if isinstance(value, tuple) else value}")
    return EXIT_OK


def cmd_isotropy(args) -> int:
    m = _resolve_algebra(args.algebra)
    iso = isotropy_algebra(m)
    print(f"ISOTROPY_DIM: {iso.dim}")
    for idx, op in enumerate(iso.basis):
        for r, row in enumerate(op.rows):
            print(f"BASIS[{idx}].ROW[{r}]: {fmt_vec(row)}")
    return EXIT_OK


def cmd_go(args) -> int:
    if args.samples > MAX_SAMPLES:
        raise FormatError(f"--samples is at most {MAX_SAMPLES}")
    if args.bound > MAX_BOUND:
        raise FormatError(f"--bound is at most {MAX_BOUND}")
    m = _resolve_algebra(args.algebra)
    iso = isotropy_algebra(m)
    report = go_random_audit(m, iso, args.samples, args.seed, args.bound)
    print(f"ALGEBRA: {args.algebra}")
    print(f"ISOTROPY_DIM: {iso.dim}")
    for line in report.lines():
        print(line)
    return EXIT_OK if report.verdict == "CONSISTENT" else EXIT_REFUTED


def cmd_go_at(args) -> int:
    m = _resolve_algebra(args.algebra)
    iso = isotropy_algebra(m)
    t = _parse_vector(args.vector)
    cert = go_certificate_at(m, iso, t)
    print(f"T: {fmt_vec(t)}")
    if cert is None:
        print("RESULT: INFEASIBLE")
        return EXIT_REFUTED
    print("RESULT: FEASIBLE")
    print(f"A_COEFFS: {fmt_vec(cert.A_coeffs)}")
    print(f"K: {cert.k}")
    return EXIT_OK


def cmd_linear_go(args) -> int:
    m = _resolve_algebra(args.algebra)
    iso = isotropy_algebra(m)
    cert = linear_go_certificate(m, iso)
    print(f"ISOTROPY_DIM: {iso.dim}")
    if cert is None:
        print("RESULT: INFEASIBLE")
        print("NOTE: only linear witnesses with k = 0 are ruled out")
        return EXIT_REFUTED
    print("RESULT: FEASIBLE")
    for j, row in enumerate(cert.coeffs.rows):
        print(f"L[{j}]: {fmt_vec(row)}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    m = _resolve_algebra(args.algebra)
    result = reduce_algebra(m)
    for line in result.witness.lines():
        print(line)
    print(f"QUOTIENT_DIM: {result.m0.dim}")
    print(f"QUOTIENT_SIGNATURE: {fmt_vec(result.m0.form.signature())}")
    for i, row in enumerate(result.complement_rows.rows):
        print(f"COMPLEMENT[{i}]: {fmt_vec(row)}")
    if args.output:
        save_algebra(args.output, result.m0)
        print(f"WROTE: {args.output}")
    return EXIT_OK


def cmd_extend(args) -> int:
    m = _resolve_algebra(args.algebra)
    data = load_extension_data(args.data)
    extended = extend2(m, data)
    print(f"EXTENDED_DIM: {extended.dim}")
    print(f"EXTENDED_SIGNATURE: {fmt_vec(extended.form.signature())}")
    if args.output:
        save_algebra(args.output, extended)
        print(f"WROTE: {args.output}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    example = build_example(args.name)
    out = args.output or f"{args.name}.json"
    names = PAPER_BASIS_NAMES if args.name == "paper_2_3" else None
    save_algebra(out, example.algebra, names)
    print(f"NAME: {example.name}")
    print(f"DIM: {example.algebra.dim}")
    print(f"WROTE: {out}")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    report = verify_paper_example()
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_REFUTED


def cmd_necessary(args) -> int:
    m = _resolve_algebra(args.algebra)
    report = necessary_condition_check(m)
    for line in report.lines():
        print(line)
    if report.skipped:
        return EXIT_OK
    return EXIT_OK if report.passed else EXIT_REFUTED


def cmd_normal_forms(args) -> int:
    from gonil.normal_forms import iwasawa_nilpotent_basis, maximal_abelian_family

    if args.m > MAX_NORMAL_FORM_M:
        raise FormatError(f"--m is at most {MAX_NORMAL_FORM_M}")
    if args.family and args.q != 2:
        raise FormatError("--family needs --q 2")
    u1, v1 = [None if x is None else parse_rational(x) for x in (args.u1, args.v1)]
    family = iwasawa_nilpotent_basis(args.q, args.m)
    to_print = maximal_abelian_family(args.family, args.m, u1, v1) if args.family else family.generators
    print(f"SIGNATURE: {family.signature[0]},{family.signature[1]}")
    print(f"AMBIENT: {family.dim_ambient}")
    print(f"FAMILY_DIM: {family.dim}")
    if args.family:
        print(f"ABELIAN_FAMILY: {args.family}")
        print(f"ABELIAN_DIM: {len(to_print)}")
        print("ABELIAN_VERIFIED: yes")
    for idx, gen in enumerate(to_print):
        for r, row in enumerate(gen.rows):
            print(f"GENERATOR[{idx}].ROW[{r}]: {fmt_vec(row)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gonil",
        description="Exact certification of metric nilpotent Lie algebras: "
        "geodesic-orbit checks and double-extension reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("check", cmd_check, "validate an algebra file")
    p.add_argument("algebra", help="path to an algebra file or catalog:NAME")

    p = add("invariants", cmd_invariants, "print series dims, step, signatures")
    p.add_argument("algebra")

    p = add("isotropy", cmd_isotropy, "print the isotropy algebra basis")
    p.add_argument("algebra")

    p = add("go", cmd_go, "randomized geodesic-orbit audit")
    p.add_argument("algebra")
    p.add_argument("--samples", type=int, default=200, help=f"number of samples, at most {MAX_SAMPLES}")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bound", type=int, default=10, help=f"entries drawn from [-bound, bound], at most {MAX_BOUND}")

    p = add("go-at", cmd_go_at, "certificate at one tangent vector")
    p.add_argument("algebra")
    p.add_argument("--vector", required=True, help='comma-separated rationals, e.g. "1,0,-2/3"')

    p = add("linear-go", cmd_linear_go, "solve for a linear certificate")
    p.add_argument("algebra")

    p = add("reduce", cmd_reduce, "double-extension quotient of a degenerate algebra")
    p.add_argument("algebra")
    p.add_argument("--output", help="write the quotient algebra file here")

    p = add("extend", cmd_extend, "apply a two-dimensional extension")
    p.add_argument("algebra")
    p.add_argument("--data", required=True, help="extension data JSON file")
    p.add_argument("--output", help="write the extended algebra file here")

    p = add("catalog", cmd_catalog, "write a built-in example to a file")
    p.add_argument("name", choices=EXAMPLE_NAMES)
    p.add_argument("--output")

    add("verify-paper", cmd_verify_paper, "run the full 12-dim example verification")

    p = add("necessary", cmd_necessary, "polarized bracket-orthogonality identities on n'")
    p.add_argument("algebra")

    p = add("normal-forms", cmd_normal_forms, "nilpotent triangular families")
    p.add_argument("--q", type=int, choices=(1, 2), required=True)
    p.add_argument("--m", type=int, required=True, help=f"matrix size, at most {MAX_NORMAL_FORM_M}")
    p.add_argument("--family", type=int, choices=(1, 2, 3))
    p.add_argument("--u1", help='rational, e.g. "1/2"')
    p.add_argument("--v1", help='rational, e.g. "3"')

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say `gonil ... | head`): point it at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_MALFORMED
    return code


def _run(args) -> int:
    try:
        return args.fn(args)
    except (FormatError, CatalogError, DimensionMismatch, GOEngineError, OSError) as exc:
        # bad or unreadable files, bad names, bad vectors/parameters: malformed input
        print(f"ERROR: {exc}")
        return EXIT_MALFORMED
    except (ReductionError, PreconditionError, NotNilpotentError, EngelError) as exc:
        # well-formed input failing a property or an operation's hypothesis
        print(f"ERROR: {exc}")
        return EXIT_REFUTED
    except ValueError as exc:
        print(f"ERROR: {exc}")
        return EXIT_MALFORMED
    except AssertionError as exc:
        # every internal check raises AssertionError("internal: ...")
        print(f"ERROR: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
