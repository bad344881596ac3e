"""The library's public functions and methods that no code in src/ calls,
and the reads that cross a module boundary, itemised with the reason each
one stays.

The walk parses every module of src/formdec but __init__, which only
re-exports, and lists each public function, and each public method of a
public class, whose name no module uses as a name or an attribute.  Such a
function is reached only from outside the library.  A new one shows up as
a diff of UNREFERENCED and must give its reason here, or be deleted.

METRIC_READERS lists the modules that read grid.metric_diag, and
PRIVATE_IMPORTS each private name that one module takes from another, by
import or as an attribute of an imported module.  A new one shows up as a
diff in the same way.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "formdec"

UNREFERENCED = {
    "em.induced_magnetic_charges": "acceptance criterion 8: the S2.1.1 charge relation",
    "em.lambda_scale": "acceptance criterion 9: the Gram scale h / (mu0 c e^2)",
    "em.maxwell_residuals": "run by fdbench's minkowski-t4-em op and acceptance criterion 7",
    "em.monopole_dipole": "acceptance criterion 8: the monopole-dipole identity",
    "mesh.PeriodicGrid.volume_form": "reference volume form of the mesh and calculus tests",
    "mesh.integrate_manifold": "reference integral that tests compare wedge_integral with",
    "mesh.wedge": "reference product that tests compare wedge_integral with",
}

METRIC_READERS = {
    "cohomology": "the v form of the embedded basis, g_vv / sqrt|g| dv",
    "mesh": "the grid builds sqrt|g| and the coefficients of star from it",
}

PRIVATE_IMPORTS = {
    "calculus <- mesh._wedge_sums": "pairings sums star(b) into the wedge one component at a time",
    "cohomology <- mesh._mean_along": "coefficients averages a form once for all dual forms",
}


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.stem != "__init__"}


def _public_defs(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield f"{node.name}.{fn.name}", fn.name


def test_unreferenced_library_functions_are_itemised():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.stem != "__init__"}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    found = sorted(
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, name in _public_defs(tree)
        if name not in used
    )
    assert found == sorted(UNREFERENCED)


def test_metric_readers_are_itemised():
    trees = _trees()
    found = sorted(
        module
        for module, tree in trees.items()
        if any(isinstance(n, ast.Attribute) and n.attr == "metric_diag" for n in ast.walk(tree))
    )
    assert found == sorted(METRIC_READERS)


def test_private_imports_are_itemised():
    trees = _trees()
    found = set()
    for module, tree in trees.items():
        siblings = set()  # the modules bound by `from . import x`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.add(f"{module} <- {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
            ):
                found.add(f"{module} <- {node.value.id}.{node.attr}")
    assert sorted(found) == sorted(PRIVATE_IMPORTS)
