"""Every module-level function and class in src/flotilla and scripts/ has a caller.

A definition counts as used when code in the package or a script refers to
it outside the definition's own body: by name in its module, through an
import, or as an attribute of an imported module. Imports alone (such as the
re-exports in ``__init__``) and the tests do not count. The definitions that
stay without a caller are listed in KEPT, each with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flotilla"
SCRIPTS = ROOT / "scripts"

KEPT = {
    "chord.cap_area": "one-chord API; the lane tests compare the sweeps against it",
    "chord.cone_area": "one-chord API; the lane tests compare the sweeps against it",
    "chord.tangent_intersection": "one-chord API; the lane tests compare the sweep apexes against it",
    "chord.solve_flotation_chord": "one-chord API; the lane tests compare the sweeps against it",
    "chord.solve_silhouette_chord": "one-chord API; the lane tests compare the sweeps against it",
    "curve.AffineFrame": "the frame of AffineImage, which the affine-invariance tests build",
    "curve.AffineImage": "the exact affine image of a body; the affine-invariance tests are built on it",
    "curve.affine_arclength": "the oracle for the one-pass affine cut length",
    "curve.affine_curvature": "the acceptance criteria check the constant affine curvature of ellipses",
    "homothety.fit_homothety": "the homothety between the flotation and buoyancy points, of the library tour and the acceptance criteria",
    "homothety.petty_condition_report": "the Petty condition itself, whose conic value (ab)^2 criterion 12 checks; "
    "the run checks its reciprocal, petty_ratios, which stays finite at flat points",
    "homothety.affine_cut_rate": "the closed-form rate of the affine cut length, checked against its finite difference",
}


def _sources():
    yield from ((f"flotilla.{p.stem}", p) for p in sorted(PACKAGE.glob("*.py")))
    yield from ((f"scripts.{p.stem}", p) for p in sorted(SCRIPTS.glob("*.py")))


def _imports(tree, package_imports):
    """Local name -> ("module", name) or ("symbol", module, name) for every flotilla import in the tree."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "flotilla":
                    # import flotilla.cli binds flotilla; import flotilla.cli as c binds the submodule
                    out[alias.asname or "flotilla"] = ("module", alias.name if alias.asname else "flotilla")
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "flotilla" + (f".{base}" if base else "")
            if base.split(".")[0] != "flotilla":
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if base != "flotilla":
                    out[local] = ("symbol", base, alias.name)
                elif (PACKAGE / f"{alias.name}.py").exists():
                    out[local] = ("module", f"flotilla.{alias.name}")
                else:  # re-exported by the package's __init__
                    out[local] = package_imports[alias.name]
    return out


def _resolve(node, imports, module, defined):
    """What an expression names: ("module", m), ("symbol", m, name) or None."""
    if isinstance(node, ast.Name):
        if node.id in imports:
            return imports[node.id]
        return ("symbol", module, node.id) if node.id in defined else None
    if isinstance(node, ast.Attribute):
        target = _resolve(node.value, imports, module, defined)
        if target and target[0] == "module":
            if (PACKAGE / f"{node.attr}.py").exists() and target[1] == "flotilla":
                return ("module", f"flotilla.{node.attr}")
            return ("symbol", target[1], node.attr)
    return None


def definitions_and_references():
    trees = {module: ast.parse(path.read_text(), str(path)) for module, path in _sources()}
    package_imports = _imports(trees["flotilla.__init__"], {})
    defined = {
        (module, stmt.name)
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    referenced = set()
    for module, tree in trees.items():
        imports = _imports(tree, package_imports)
        names = {name for mod, name in defined if mod == module}
        for stmt in tree.body:
            owner = (module, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                target = _resolve(node, imports, module, names)
                if target and target[0] == "symbol" and target[1:] != owner:
                    referenced.add(target[1:])
    return defined, referenced


def _key(module, name):
    return f"{module.removeprefix('flotilla.')}.{name}"


def test_every_definition_has_a_caller():
    defined, referenced = definitions_and_references()
    unused = sorted(_key(*d) for d in defined if d not in referenced and _key(*d) not in KEPT)
    assert unused == [], "defined in src/flotilla or scripts/ but never referenced there; delete them or add to KEPT"


def test_kept_entries_are_current():
    # an entry that gains a caller, or whose definition is gone, leaves the list
    defined, referenced = definitions_and_references()
    keys = {_key(*d): d for d in defined}
    assert sorted(k for k in KEPT if k not in keys) == []
    assert sorted(k for k in KEPT if keys[k] in referenced) == []
