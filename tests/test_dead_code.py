"""Every module-level function and class in src/flotilla and scripts/ has a caller, and every knob a setter.

A definition counts as used when code in the package or a script refers to
it outside the definition's own body: by name in its module, through an
import, or as an attribute of an imported module. Imports alone (such as the
re-exports in ``__init__``) and the tests do not count. The definitions that
stay without a caller are listed in KEPT, each with the reason.

A knob is a parameter with a default. It counts as set when some call in the
package or a script, matched by the called name (a constructor by its class
name), passes it by keyword or by position, or passes *args or **kwargs. A
knob that no call sets has one value in use and should be a constant; the
ones that stay are listed in KEPT_KNOBS, each with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flotilla"
SCRIPTS = ROOT / "scripts"

KEPT = {
    "curve.AffineFrame": "the frame of AffineImage, which the affine-invariance tests build",
    "curve.AffineImage": "the exact affine image of a body; the affine-invariance tests are built on it",
    "homothety.fit_homothety": "the homothety between the flotation and buoyancy points, of the library tour and the acceptance criteria",
}

KEPT_KNOBS = {
    "chord.sweep.s0": "the tests sweep from shifted starts, where the chord grid misses the body's symmetry axes",
    "cli.main.argv": "the tests and the benchmark call main in process; the console script reads sys.argv",
    "curve.AffineFrame.translation": "the tests build linear frames as well as moved ones",
    "homothety.build_carousel.delta": "the tests chain at a given delta, to differentiate the closure defect in it",
    "numerics.TrigInterpolant.__call__.order": "the tests read the interpolant's derivatives and antiderivative",
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


def _knobs(trees):
    """knob key -> (called name, positional parameter names after self, parameter) of every defaulted parameter."""
    knobs = {}

    def visit(node, module, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, prefix + [child.name], child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                bound = positional[1:] if cls and not static else positional
                init = cls and child.name == "__init__"
                name = ".".join(prefix + ([] if init else [child.name]))
                for param in defaulted:
                    knobs[_key(module, f"{name}.{param}")] = (cls if init else child.name, bound, param)
                visit(child, module, prefix + [child.name], None)

    for module, tree in trees.items():
        visit(tree, module, [], None)
    return knobs


def _calls_by_name(trees):
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call, positional, param):
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg in (None, param) for k in call.keywords):
        return True
    return param in positional and positional.index(param) < len(call.args)


def unset_knobs():
    trees = {module: ast.parse(path.read_text(), str(path)) for module, path in _sources()}
    calls = _calls_by_name(trees)
    knobs = _knobs(trees)
    unset = {key for key, (name, positional, param) in knobs.items()
             if not any(_sets(call, positional, param) for call in calls.get(name, []))}
    return knobs, unset


def test_every_knob_is_set_somewhere():
    _, unset = unset_knobs()
    assert sorted(unset - set(KEPT_KNOBS)) == [], (
        "a defaulted parameter that no call in src/flotilla or scripts/ sets; make it a constant or add to KEPT_KNOBS"
    )


def test_kept_knobs_are_current():
    # an entry whose parameter gains a setter, or is gone, leaves the list
    knobs, unset = unset_knobs()
    assert sorted(k for k in KEPT_KNOBS if k not in knobs) == []
    assert sorted(k for k in KEPT_KNOBS if k not in unset) == []


def test_every_import_is_used():
    # a name that an import binds and no code reads; __init__'s imports are its re-exports
    unused = []
    for module, path in _sources():
        if module == "flotilla.__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [
                    f"{module}: {alias.asname or alias.name.split('.')[0]}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in read
                ]
    assert unused == [], "imported in src/flotilla or scripts/ but never read; delete the import"
