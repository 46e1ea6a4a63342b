"""Every module-level function and class in src/flotilla and scripts/ has a caller, and every knob a setter.

A definition counts as used when code in the package or a script refers to
it outside the definition's own body: by name in its module, through an
import, or as an attribute of an imported module. Imports alone (such as the
re-exports in ``__init__``) and the tests do not count. The definitions that
stay without a caller are listed in KEPT, each with the reason.

A knob is a parameter. The calls in the package and the scripts, matched by
the called name (a constructor by its class name), pass it by keyword or by
position, or leave it at its default; a call with *args or **kwargs may pass
anything. A knob has one value in use, and should be a constant, when no
call sets it away from its default, or when every call passes it the same
literal or module constant. The ones that stay are listed in KEPT_KNOBS,
each with the reason.
"""

import ast
import textwrap
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
    "homothety.radon_check.n_samples": "the CLI checks at 128 samples; the tests check the Radon bodies at 32 to 256",
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
    """knob key -> (called name, positional parameter names after self, parameter, default or None) of each parameter."""
    knobs = {}

    def visit(node, module, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, prefix + [child.name], child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
                defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults))
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                bound = positional[1:] if cls and not static else positional
                init = cls and child.name == "__init__"
                name = ".".join(prefix + ([] if init else [child.name]))
                called = cls if init else child.name
                for param in bound + [a.arg for a in args.kwonlyargs]:
                    knobs[_key(module, f"{name}.{param}")] = (called, bound, param, defaults.get(param))
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


def _passed(call, positional, param, default):
    """The expression a call passes for the parameter, its default if it passes none, None if *args or **kwargs may."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return None
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if param in positional and positional.index(param) < len(call.args):
        return call.args[positional.index(param)]
    return default


def _constant(node):
    """Whether an expression is a literal or a module constant, an upper-case name."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return getattr(node, "id", getattr(node, "attr", "")).isupper()
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False
    return True


def _one_value(passed, default):
    """Whether the expressions that the calls pass leave the default alone, or are one literal or module constant."""
    if default is not None and all(value is default for value in passed):
        return True
    if not passed or any(value is None or not _constant(value) for value in passed):
        return False
    return len({ast.dump(value) for value in passed}) == 1


def one_value_knobs(trees=None):
    """Every knob, and the knobs with one value in use, in the given module trees or those of the sources."""
    trees = trees or {module: ast.parse(path.read_text(), str(path)) for module, path in _sources()}
    calls = _calls_by_name(trees)
    knobs = _knobs(trees)
    fixed = {
        key
        for key, (name, positional, param, default) in knobs.items()
        if _one_value([_passed(call, positional, param, default) for call in calls.get(name, [])], default)
    }
    return knobs, fixed


def test_every_knob_is_set_somewhere():
    _, fixed = one_value_knobs()
    assert sorted(fixed - set(KEPT_KNOBS)) == [], (
        "a parameter with one value in src/flotilla and scripts/; make it a constant or add to KEPT_KNOBS"
    )


def test_knob_rule_finds_the_parameters_with_one_value():
    tree = ast.parse(textwrap.dedent("""
        def solve(f, tol, pieces=2, scale=1.0, name=None, quiet=False):
            pass

        def run(x):
            solve(x, 1e-9, 8, scale=x)
            solve(x, TOL, pieces=8, name=NAME)
    """))
    # f and scale take a variable, tol two values and name its default or NAME;
    # every call cuts in 8 pieces, and none sets quiet
    knobs, fixed = one_value_knobs({"flotilla.demo": tree})
    assert sorted(fixed) == ["demo.solve.pieces", "demo.solve.quiet"]
    assert len(knobs) == 7


def test_kept_knobs_are_current():
    # an entry whose parameter gains a second value, or is gone, leaves the list
    knobs, fixed = one_value_knobs()
    assert sorted(k for k in KEPT_KNOBS if k not in knobs) == []
    assert sorted(k for k in KEPT_KNOBS if k not in fixed) == []


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
