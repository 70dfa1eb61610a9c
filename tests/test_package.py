"""The package's public names.

``gonil.__all__`` is read off the imports in ``gonil/__init__.py``, so it must
hold exactly the names imported there and none of the submodules that those
imports bind as package attributes.
"""

import types

import gonil

PUBLIC_NAMES = """
CatalogError DegeneracyCase DegeneracyTag DimensionMismatch EXAMPLE_NAMES EngelError ExtensionData
ExtensionDataError FormatError GOAuditReport GOCertificate GOEngineError IwasawaFamily JacobiError
LieAlgebra LinearGOCertificate Matrix MetricLieAlgebra NamedExample NecessaryConditionReport
NormalFormError NotNilpotentError OperatorSpace PreconditionError QuotientResult ReductionError
ReductionWitness SignatureTriple Subspace SymForm bracket_subspaces build_example center
centralizer classify_degeneracy derivation_space derived_series engel_flag extend2
go_certificate_at go_random_audit is_adh_invariant is_ideal isotropy_algebra
iwasawa_nilpotent_basis jacobi_defect kernel linear_go_certificate load_algebra
lower_central_series maximal_abelian_family necessary_condition_check nilpotency_step
orth_complement quotient_form radical_of_restriction reduce reduction_witness restrict_form rref
save_algebra skew_space solve_particular symmetric_signature verify_paper_example
""".split()


def test_all_names_every_public_import_once():
    assert len(PUBLIC_NAMES) == 65
    assert sorted(gonil.__all__) == sorted(PUBLIC_NAMES)


def test_star_import_binds_no_submodule():
    namespace: dict = {}
    exec("from gonil import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC_NAMES)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert isinstance(gonil.io, types.ModuleType) and "io" not in namespace  # bound on the package, not exported
