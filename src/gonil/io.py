"""The shared JSON file format for metric Lie algebras and extension data.

All scalars serialize as decimal rational strings "p" or "p/q" with positive
denominator in lowest terms, so write/read round trips are bit-exact.  The
loader reports the precise violation (bad index, asymmetric form, Jacobi
failure, degenerate form, non-nilpotency) instead of a generic parse error.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from gonil.double_ext import ExtensionData
from gonil.lie import JacobiError, LieAlgebra
from gonil.linalg import Matrix
from gonil.metric import MetricLieAlgebra, PreconditionError, SymForm


class FormatError(ValueError):
    pass


# Accepted rational strings: an optional sign and digits, then optionally
# "/digits" or ".digits".  Exponents are refused because "1e999999999" makes
# Fraction build a billion-digit integer before anything can fail.
MAX_RATIONAL_CHARS = 1000
# The isotropy kernel has dim^2 unknowns and its cost grows about as dim^4.
MAX_DIM = 64
# A dense 64-dim algebra file with short entries is about 2.5 MiB; without a
# bound, a file such as /dev/zero is read until memory runs out.
MAX_FILE_BYTES = 16 * 2**20
_INT_BOUND = 10**MAX_RATIONAL_CHARS
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """A bounded rational from untrusted text: "p", "p/q" (normalized) or "d.d"."""
    text = text.strip()
    if len(text) > MAX_RATIONAL_CHARS:
        raise FormatError(f"rational string longer than {MAX_RATIONAL_CHARS} characters")
    if not _RATIONAL.fullmatch(text):
        raise FormatError(f"not a rational (expected p, p/q or a decimal without exponent): {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise FormatError(f"zero denominator in rational: {text!r}") from exc


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise FormatError(f"{where}: rational values must be strings like '3' or '-3/4'")
    if isinstance(value, int):  # a bare JSON integer meets the same bound, on its digits
        if abs(value) >= _INT_BOUND:
            raise FormatError(f"{where}: integer longer than {MAX_RATIONAL_CHARS} digits")
        return Fraction(value)
    try:
        return parse_rational(value)
    except FormatError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _fmt_rational(x: Fraction) -> str:
    return str(Fraction(x))


def algebra_to_dict(m: MetricLieAlgebra, basis_names: Sequence[str] | None = None) -> dict:
    out: dict = {"dim": m.dim}
    if basis_names is not None:
        if len(basis_names) != m.dim:
            raise FormatError("basis_names length differs from dim")
        out["basis_names"] = list(basis_names)
    brackets = {}
    for (i, j), targets in sorted(m.algebra.table.items()):
        brackets[f"{i},{j}"] = {str(k): _fmt_rational(c) for k, c in sorted(targets.items())}
    out["brackets"] = brackets
    out["form"] = [[_fmt_rational(x) for x in row] for row in m.form.gram.rows]
    return out


def algebra_from_dict(data: dict) -> tuple[MetricLieAlgebra, list[str] | None]:
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError("'dim' must be a positive integer")
    if dim > MAX_DIM:
        raise FormatError(f"'dim' is at most {MAX_DIM}")
    basis_names = data.get("basis_names")
    if basis_names is not None:
        if not isinstance(basis_names, list) or len(basis_names) != dim:
            raise FormatError("'basis_names' must list one name per basis vector")
        basis_names = [str(x) for x in basis_names]
    raw_brackets = data.get("brackets", {})
    if not isinstance(raw_brackets, dict):
        raise FormatError("'brackets' must be an object keyed by 'i,j'")
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    keys: dict[tuple[int, int], str] = {}
    for key, targets in raw_brackets.items():
        try:
            i_s, j_s = key.split(",")
            i, j = int(i_s), int(j_s)
        except (ValueError, AttributeError) as exc:
            raise FormatError(f"bracket key {key!r} is not of the form 'i,j'") from exc
        if not (0 <= i < j < dim):
            raise FormatError(f"bracket key {key!r} needs 0 <= i < j < dim={dim}")
        if (i, j) in keys:
            raise FormatError(f"bracket keys {keys[i, j]!r} and {key!r} both name the pair ({i},{j})")
        keys[i, j] = key
        if not isinstance(targets, dict):
            raise FormatError(f"bracket {key!r}: value must map target index to rational")
        entry = {}
        for k_s, c in targets.items():
            try:
                k = int(k_s)
            except ValueError as exc:
                raise FormatError(f"bracket {key!r}: bad target index {k_s!r}") from exc
            if not 0 <= k < dim:
                raise FormatError(f"bracket {key!r}: target {k} out of range")
            entry[k] = _parse_rational(c, f"bracket {key!r} target {k}")
        table[(i, j)] = entry
    raw_form = data.get("form")
    if (
        not isinstance(raw_form, list)
        or len(raw_form) != dim
        or any(not isinstance(r, list) or len(r) != dim for r in raw_form)
    ):
        raise FormatError(f"'form' must be a {dim}x{dim} array of rational strings")
    gram_rows = [
        [_parse_rational(x, f"form[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(raw_form)
    ]
    for i in range(dim):
        for j in range(i + 1, dim):
            if gram_rows[i][j] != gram_rows[j][i]:
                raise FormatError(f"form is not symmetric at ({i},{j})")
    try:
        algebra = LieAlgebra(dim, table)
    except JacobiError as exc:
        raise FormatError(f"bracket table is not a Lie algebra: {exc}") from exc
    try:
        m = MetricLieAlgebra.checked(algebra, SymForm(Matrix(gram_rows)))
    except PreconditionError as exc:
        raise FormatError(str(exc)) from exc
    return m, basis_names


def save_algebra(path: str | Path, m: MetricLieAlgebra, basis_names: Sequence[str] | None = None) -> None:
    Path(path).write_text(json.dumps(algebra_to_dict(m, basis_names), indent=2) + "\n")


def _read_json(path: str | Path):
    """The JSON value of a file of at most MAX_FILE_BYTES bytes; a longer file is refused unparsed."""
    with Path(path).open("rb") as f:
        data = f.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise FormatError(f"file is longer than {MAX_FILE_BYTES} bytes")
    try:
        return json.loads(data.decode("utf-8"))
    # ValueError: bad JSON, bad UTF-8 or an integer past the digit limit; RecursionError: nested too deeply
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc


def load_algebra(path: str | Path) -> tuple[MetricLieAlgebra, list[str] | None]:
    return algebra_from_dict(_read_json(path))


def extension_data_to_dict(data: ExtensionData) -> dict:
    return {
        "D": [[_fmt_rational(x) for x in row] for row in data.derivation.rows],
        "phi": [_fmt_rational(x) for x in data.phi],
        "omega": [[_fmt_rational(x) for x in row] for row in data.omega.rows],
        "mu": _fmt_rational(data.mu),
    }


def extension_data_from_dict(data: dict) -> ExtensionData:
    if not isinstance(data, dict):
        raise FormatError("extension data must be an object")
    for key in ("D", "phi", "omega"):
        if key not in data:
            raise FormatError(f"extension data is missing {key!r}")
    d_rows = data["D"]
    omega_rows = data["omega"]
    phi = data["phi"]
    if not isinstance(d_rows, list) or not isinstance(omega_rows, list) or not isinstance(phi, list):
        raise FormatError("'D' and 'omega' must be arrays of arrays; 'phi' an array")
    k = len(phi)
    if k > MAX_DIM - 2:
        raise FormatError(f"'phi' has at most {MAX_DIM - 2} entries, as the extension's 'dim' is at most {MAX_DIM}")
    for name, rows in (("D", d_rows), ("omega", omega_rows)):
        if len(rows) != k or any(not isinstance(r, list) or len(r) != k for r in rows):
            raise FormatError(f"'{name}' must be a {k}x{k} array matching phi's length")
    derivation = Matrix(
        [[_parse_rational(x, f"D[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(d_rows)],
        ncols=k,
    )
    omega = Matrix(
        [[_parse_rational(x, f"omega[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(omega_rows)],
        ncols=k,
    )
    phi_vec = tuple(_parse_rational(x, f"phi[{i}]") for i, x in enumerate(phi))
    mu = _parse_rational(data.get("mu", "0"), "mu")
    return ExtensionData(derivation, phi_vec, omega, mu)


def load_extension_data(path: str | Path) -> ExtensionData:
    return extension_data_from_dict(_read_json(path))
