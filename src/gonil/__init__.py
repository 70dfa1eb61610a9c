"""Exact-arithmetic toolkit for metric nilpotent Lie algebras.

Represents nilpotent Lie algebras with rational structure constants and a
nondegenerate symmetric bilinear form, certifies the geodesic-orbit property
by exact linear feasibility, and reduces algebras whose form degenerates on
the derived algebra through the two-dimensional double-extension quotient.
"""

from types import ModuleType as _ModuleType

from gonil.catalog import (
    EXAMPLE_NAMES,
    CatalogError,
    NamedExample,
    build_example,
    verify_paper_example,
)
from gonil.double_ext import (
    DegeneracyCase,
    DegeneracyTag,
    ExtensionData,
    ExtensionDataError,
    QuotientResult,
    ReductionError,
    ReductionWitness,
    classify_degeneracy,
    extend2,
    reduce,
    reduction_witness,
)
from gonil.go_engine import (
    GOAuditReport,
    GOCertificate,
    GOEngineError,
    LinearGOCertificate,
    NecessaryConditionReport,
    go_certificate_at,
    go_random_audit,
    linear_go_certificate,
    necessary_condition_check,
)
from gonil.io import FormatError, load_algebra, save_algebra
from gonil.isotropy import (
    OperatorSpace,
    derivation_space,
    is_adh_invariant,
    isotropy_algebra,
    skew_space,
)
from gonil.lie import (
    EngelError,
    JacobiError,
    LieAlgebra,
    NotNilpotentError,
    bracket_subspaces,
    center,
    centralizer,
    is_ideal,
    jacobi_defect,
    lower_central_series,
    nilpotency_step,
)
from gonil.linalg import (
    DimensionMismatch,
    Matrix,
    SignatureTriple,
    Subspace,
    rref,
    solve_particular,
    symmetric_signature,
)
from gonil.metric import (
    MetricLieAlgebra,
    PreconditionError,
    SymForm,
    orth_complement,
    radical_of_restriction,
    restrict_form,
)
from gonil.normal_forms import (
    IwasawaFamily,
    NormalFormError,
    iwasawa_nilpotent_basis,
    maximal_abelian_family,
)

# Every name imported above, and none of the submodules the imports bind.
__all__ = sorted(k for k, v in globals().items() if not (k.startswith("_") or isinstance(v, _ModuleType)))

__version__ = "0.1.0"
