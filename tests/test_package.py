"""The package's public names, and no definition that nothing uses.

``gonil.__all__`` is read off the imports in ``gonil/__init__.py``, so it must
hold exactly the names imported there and none of the submodules that those
imports bind as package attributes.  Every other module-level function, class
and method under ``src/gonil`` must be named somewhere else in the package.
"""

import ast
import types
from collections import Counter
from pathlib import Path

import gonil

PUBLIC_NAMES = """
CatalogError DegeneracyCase DegeneracyTag DimensionMismatch EXAMPLE_NAMES EngelError ExtensionData
ExtensionDataError FormatError GOAuditReport GOCertificate GOEngineError IwasawaFamily JacobiError
LieAlgebra LinearGOCertificate Matrix MetricLieAlgebra NamedExample NecessaryConditionReport
NormalFormError NotNilpotentError OperatorSpace PreconditionError QuotientResult ReductionError
ReductionWitness SignatureTriple Subspace SymForm bracket_subspaces build_example center centralizer
classify_degeneracy derivation_space extend2 go_certificate_at go_random_audit is_adh_invariant
is_ideal isotropy_algebra iwasawa_nilpotent_basis jacobi_defect linear_go_certificate load_algebra
lower_central_series maximal_abelian_family necessary_condition_check nilpotency_step
orth_complement quotient_form radical_of_restriction reduce reduction_witness restrict_form rref
save_algebra skew_space solve_particular symmetric_signature verify_paper_example
""".split()


def test_all_names_every_public_import_once():
    assert len(PUBLIC_NAMES) == 62
    assert sorted(gonil.__all__) == sorted(PUBLIC_NAMES)


def test_star_import_binds_no_submodule():
    namespace: dict = {}
    exec("from gonil import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC_NAMES)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert isinstance(gonil.io, types.ModuleType) and "io" not in namespace  # bound on the package, not exported


# Definitions that no code in the package names, each kept for a reason.
UNREFERENCED_BUT_KEPT = {
    "bracket_basis": "LieAlgebra.bracket_basis, [e_i, e_j] as a vector; the package reads the bracket table itself",
    "column": "Matrix.column, the column partner of Matrix.row",
    "contains_vector": "Subspace.contains_vector, the yes-or-no partner of Subspace.coordinates",
    "derivation_defects": "the tested entry point to the live _first_defects, as skew_defects is",
    "extension_data_to_dict": "writes the extension-data JSON that `gonil extend --data` reads",
    "from_basis": "Subspace.from_basis, the one way in for a dense reduced basis; the package builds sparse rows",
    "radical": "SymForm.radical, the whole-space case of radical_of_restriction",
}


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (sub for sub in node.body if isinstance(sub, ast.FunctionDef))


def _unreferenced(src: Path) -> list[str]:
    """Names defined in src/*.py that no Name or attribute there reads, less the exempt ones.

    Names are matched alone, so a method counts as used when any attribute of
    its name is read; an import is no use.  Exempt are the public names, dunders,
    CLI commands and catalog builders, which their decorator registers.
    """
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    read = Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )
    return sorted(
        node.name
        for tree in trees
        for node in _definitions(tree)
        if not read[node.name]
        and node.name not in gonil.__all__
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not node.name.startswith("cmd_")
        and not any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_register" for d in node.decorator_list)
    )


def test_every_definition_in_the_package_is_used_or_kept_for_a_reason():
    # Equality, so an allowance goes stale as soon as some code names it.
    assert _unreferenced(Path(gonil.__file__).parent) == sorted(UNREFERENCED_BUT_KEPT)
