"""The package's public names, and no definition that nothing uses.

``gonil.__all__`` is read off the imports in ``gonil/__init__.py``, so it must
hold exactly the names imported there and none of the submodules that those
imports bind as package attributes.  Every other module-level function, class
and method under ``src/gonil`` must be named somewhere else in the package, and
every top-level oracle in ``tests/oracles.py`` by a test module or another oracle.
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
orth_complement radical_of_restriction reduce reduction_witness restrict_form rref
save_algebra skew_space solve_particular symmetric_signature verify_paper_example
""".split()


def test_all_names_every_public_import_once():
    assert len(PUBLIC_NAMES) == 61
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
    "from_basis": "Subspace.from_basis, the public entry for a dense reduced basis, which the test oracles use",
    "polarized_defects": "the entry point for dense operators to _polarized_defects, which verify-paper calls with its cleared witnesses",
    "radical": "SymForm.radical, the whole-space case of radical_of_restriction",
    "scale": "Matrix.scale, which README's removed names give as the replacement for combine",
    "solving": "Subspace.solving, the public entry for rational (column, value) rows (README); the package builds int rows",
    "zeros": "Matrix.zeros, the start of README's combine sum, which the benchmark's extension data also uses",
}


def _definitions(tree):
    """(definition, is a method) for module-level functions and classes and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
            if isinstance(node, ast.ClassDef):
                yield from ((sub, True) for sub in node.body if isinstance(sub, ast.FunctionDef))


def _reads(nodes):
    """Counters of the names read as a bare name and as an attribute among these nodes."""
    names, attributes = Counter(), Counter()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes[node.attr] += 1
    return names, attributes


def _unreferenced(src: Path) -> list[str]:
    """Names defined in src/*.py that nothing there reads, less the exempt ones.

    A method counts as used only when an attribute of its name is read, so a
    local variable of the same name does not hide it; a module-level function
    or class counts when its name is read as a name or as an attribute.  An
    import is no use.  Exempt are the public names, dunders and CLI commands.
    """
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    names, attributes = _reads(node for tree in trees for node in ast.walk(tree))
    return sorted(
        node.name
        for tree in trees
        for node, method in _definitions(tree)
        if not attributes[node.name]
        and (method or not names[node.name])
        and node.name not in gonil.__all__
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not node.name.startswith("cmd_")
    )


def test_every_definition_in_the_package_is_used_or_kept_for_a_reason():
    # Equality, so an allowance goes stale as soon as some code names it.
    assert _unreferenced(Path(gonil.__file__).parent) == sorted(UNREFERENCED_BUT_KEPT)


TESTS = Path(__file__).resolve().parent


def _oracle_reads_of_test(tree) -> Counter:
    """Oracles a test module reads: loads of the names it imports from ``oracles``, and ``oracles.NAME``."""
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "oracles"
        for alias in node.names
    }
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in imported:
            reads[imported[node.id]] += 1
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "oracles"
        ):
            reads[node.attr] += 1
    return reads


def _reads_between_oracles(tree) -> Counter:
    """Names read in ``oracles.py`` outside the reading definition's own name, arguments and locals."""
    reads = Counter()
    for node in tree.body:
        own = set()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = {node.name} | {
                sub.arg if isinstance(sub, ast.arg) else sub.id
                for sub in ast.walk(node)
                if isinstance(sub, ast.arg) or (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store))
            }
        names, _attributes = _reads(ast.walk(node))
        reads.update({name: count for name, count in names.items() if name not in own})
    return reads


def _unnamed_oracles(oracles, tests) -> list[str]:
    """Top-level definitions of the ``oracles`` tree that no test tree and no other oracle reads."""
    reads = _reads_between_oracles(oracles)
    for tree in tests:
        reads += _oracle_reads_of_test(tree)
    defined = [node.name for node in oracles.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return [name for name in defined if not reads[name]]


def _oracle_trees():
    return ast.parse((TESTS / "oracles.py").read_text()), [
        ast.parse(path.read_text()) for path in sorted(TESTS.glob("test_*.py"))
    ]


def test_every_oracle_is_named_by_a_test_or_another_oracle():
    # An oracle that a merged test no longer calls goes in the same change.
    assert _unnamed_oracles(*_oracle_trees()) == []


def test_an_oracle_whose_one_caller_goes_is_flagged():
    # entries is read only by certificate_tensors_by_dense_products; the local
    # variables named entries, in oracles.py and in the tests, are no reads.
    oracles, tests = _oracle_trees()
    caller = "certificate_tensors_by_dense_products"
    oracles.body = [node for node in oracles.body if getattr(node, "name", None) != caller]
    assert _unnamed_oracles(oracles, tests) == ["entries"]
