"""Every 2^Q object lives in `parasim.dense`, and only the engine's ideal
pass imports it: read from the package's source with `ast`, so a module
that takes a dense reference back, or imports one where it runs, fails."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "parasim"
# the names that live in dense alone
MOVED = {"MAX_DENSE_QUBITS", "dense_identity", "pauli_view", "apply_word", "onehot_index",
         "pauli_sum_to_matrix", "restrict_to_onehot", "rotate", "apply_gate_batch",
         "circuit_unitary", "outcome_bits", "histogram", "product_unitary"}
# the ideal pass's kernels, bound in engine where perfbench wraps them
ENGINE_IMPORTS = {"apply_gate_batch", "dense_identity", "rotate"}
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def dense_imports(tree: ast.Module) -> set:
    """The names a module takes from parasim.dense anywhere in its body,
    'dense' for the module itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module if node.level == 0 else \
                ".".join(filter(None, ("parasim", node.module)))
            if source == "parasim.dense":
                names |= {alias.name for alias in node.names}
            elif source == "parasim":
                names |= {alias.name for alias in node.names} & {"dense"}
        elif isinstance(node, ast.Import):
            names |= {"dense" for alias in node.names if alias.name == "parasim.dense"}
    return names


def defined(tree: ast.Module) -> set:
    """The names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {n.id for target in node.targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)}
    return names


class TestOneDenseModule:
    def test_no_module_but_engine_imports_dense(self):
        importers = {name for name, tree in TREES.items() if dense_imports(tree)}
        assert importers == {"engine"}

    def test_engine_imports_exactly_the_ideal_pass_kernels(self):
        assert dense_imports(TREES["engine"]) == ENGINE_IMPORTS

    def test_the_package_exports_no_dense_reference(self):
        tree = TREES["__init__"]
        assert dense_imports(tree) == set()
        exported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert not exported & MOVED

    @pytest.mark.parametrize("module", sorted(TREES))
    def test_no_moved_name_is_defined_outside_dense(self, module):
        names = defined(TREES[module])
        if module == "dense":
            assert MOVED <= names
        else:
            assert not names & MOVED
