"""Every function, class, method and property in src/flotilla and scripts/ has a caller, and every knob a setter.

A module-level definition counts as used when code in the package or a
script refers to it outside the definition's own body: by name in its
module, through an import, or as an attribute of an imported module. A
method or property of a module-level class counts as used when code there
reads an attribute of its name outside its own body. Imports alone (such as
the re-exports in ``__init__``) and the tests do not count. The definitions
that stay without a caller are listed in KEPT, each with the reason.

A private name (one underscore) of a flotilla module that another module of
the package or a script reads, through ``from .m import _x`` or as ``m._x``,
couples the two modules' internals. Each such read is listed in
CROSS_MODULE_PRIVATES, with the reason it is not public.

A knob is a parameter. The calls in the package and the scripts, matched by
the called name (a constructor by its class name), pass it by keyword or by
position, or leave it at its default; a call with *args or **kwargs may pass
anything. A knob has one value in use, and should be a constant, when no
call sets it away from its default, or when every call passes it the same
literal or module constant. The ones that stay are listed in KEPT_KNOBS,
each with the reason.

A parameter, self and cls aside, should also be read: a function whose body
never loads its name takes a value only to drop it. The ones that stay are
listed in UNREAD_PARAMETERS, each with the reason.

A run ends in one of two failures besides a failed check: errors.py's
DomainError (bad input, exit 2) and SolverError (a numerical failure, exit
3). Every raise in src/flotilla names one of them, cli's ConfigError, or the
abstract evaluator's NotImplementedError, in RAISABLE.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flotilla"
SCRIPTS = ROOT / "scripts"

KEPT = {
    "curve.AffineFrame": "the frame of AffineImage, which the affine-invariance tests build",
    "curve.AffineFrame.apply": "maps points by the frame, as the affine-invariance tests map a body's derived points",
    "curve.AffineImage": "the exact affine image of a body; the affine-invariance tests are built on it",
    "homothety.HomothetyFit.is_translation": "says which of fit_homothety's two modes holds, where the ratio is 1",
    "homothety.fit_homothety": "the homothety between the flotation and buoyancy points, of the library tour and the acceptance criteria",
}

# "reader: module._name" -> why the reader takes the other module's private name
CROSS_MODULE_PRIVATES = {
    "homothety: chord._apex": "a carousel's tangent triangles are the apexes of its chords' end tangents",
    "scripts.limit_convergence: homothety._check_symmetric": "the polar intersection body is defined for bodies symmetric about their centroid, as radon is",
}

KEPT_KNOBS = {
    "chord.sweep.s0": "the tests sweep from shifted starts, where the chord grid misses the body's symmetry axes",
    "cli.main.argv": "the tests and the benchmark call main in process; the console script reads sys.argv",
    "curve.AffineFrame.translation": "the tests build linear frames as well as moved ones",
    "homothety.build_carousel.delta": "the tests chain at a given delta, to differentiate the closure defect in it",
    "homothety.radon_check.n_samples": "the CLI checks at 128 samples; the tests check the Radon bodies at 32 to 256",
    "numerics.TrigInterpolant.__call__.order": "the tests read the interpolant's derivatives and antiderivative",
}

# "module.function.parameter" -> why the function takes a parameter its body never reads
UNREAD_PARAMETERS = {
    "cli._check_affine_normal.bundle": "run_checks calls every entry of CHECKS with its bundle; this one always skips",
    "cli._check_dupin.bundle": "run_checks calls every entry of CHECKS with its bundle; this one always skips",
    "curve.ClosedConvexCurve.derivatives.orders": "the abstract evaluator; every curve kind overrides it with this signature",
    "curve.ClosedConvexCurve.derivatives.s": "the abstract evaluator; every curve kind overrides it with this signature",
}


# the exceptions a raise in src/flotilla may name -> what it means
RAISABLE = {
    "DomainError": "bad input: the command line exits 2",
    "SolverError": "a numerical failure: the command line exits 3",
    "ConfigError": "cli's usage or config error: the command line exits 2",
    "NotImplementedError": "the abstract evaluator, ClosedConvexCurve.derivatives",
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


def _trees():
    return {module: ast.parse(path.read_text(), str(path)) for module, path in _sources()}


def definitions_and_references():
    trees = _trees()
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


def methods_and_readers(trees=None):
    """Key -> whether code reads it, for every method and property (dunders aside) of a module-level class.

    A read is an attribute load of the method's name anywhere in the trees,
    outside the method's own body.
    """
    trees = trees or _trees()
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    methods = {}
    for module, tree in trees.items():
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            for method in cls.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method.name.startswith("__"):
                    own = {id(node) for node in ast.walk(method)}
                    read = any(id(node) not in own for node in reads.get(method.name, []))
                    key = _key(module, f"{cls.name}.{method.name}")
                    methods[key] = methods.get(key, False) or read
    return methods


def cross_module_privates(trees=None):
    """Every "reader: module._name" where a module reads another flotilla module's private name."""
    trees = trees or _trees()
    package_imports = _imports(trees["flotilla.__init__"], {})
    found = set()
    for module, tree in trees.items():
        imports = _imports(tree, package_imports)
        targets = [target for target in imports.values() if target[0] == "symbol"]
        attributes = (node for node in ast.walk(tree) if isinstance(node, ast.Attribute))
        targets += [_resolve(node, imports, module, set()) for node in attributes]
        for target in targets:
            if target and target[0] == "symbol" and target[1] != module:
                name = target[2]
                if name.startswith("_") and not name.startswith("__"):
                    found.add(f"{module.removeprefix('flotilla.')}: {_key(*target[1:])}")
    return found


def test_every_definition_has_a_caller():
    defined, referenced = definitions_and_references()
    unused = sorted(_key(*d) for d in defined if d not in referenced and _key(*d) not in KEPT)
    unused += sorted(key for key, read in methods_and_readers().items() if not read and key not in KEPT)
    assert unused == [], "defined in src/flotilla or scripts/ but never referenced there; delete them or add to KEPT"


def test_kept_entries_are_current():
    # an entry that gains a caller, or whose definition is gone, leaves the list
    defined, referenced = definitions_and_references()
    keys = {_key(*d): d in referenced for d in defined}
    keys.update(methods_and_readers())
    assert sorted(k for k in KEPT if k not in keys) == []
    assert sorted(k for k in KEPT if keys[k]) == []


def test_method_rule_counts_reads_outside_the_method():
    tree = ast.parse(textwrap.dedent("""
        class Fit:
            def ratio(self):
                return self.ratio()

            @property
            def center(self):
                return 0.0

            def spread(self):
                return self.center

            def __len__(self):
                return 1
    """))
    # ratio reads only itself, and spread has no reader; a dunder is read by syntax
    assert methods_and_readers({"flotilla.demo": tree}) == {
        "demo.Fit.ratio": False, "demo.Fit.center": True, "demo.Fit.spread": False,
    }


def test_every_cross_module_private_is_listed():
    found = cross_module_privates()
    assert sorted(found - set(CROSS_MODULE_PRIVATES)) == [], (
        "a module reads another flotilla module's private name; make it public or add it to CROSS_MODULE_PRIVATES"
    )
    # an entry whose read is gone leaves the table
    assert sorted(set(CROSS_MODULE_PRIVATES) - found) == []


def test_cross_module_rule_finds_both_forms():
    trees = {
        "flotilla.__init__": ast.parse(""),
        "flotilla.solve": ast.parse("def _step():\n    pass\n"),
        "flotilla.fit": ast.parse("from .solve import _step\n\ndef run():\n    return _step()\n"),
        "scripts.scan": ast.parse("import flotilla.solve as solve\n\nsolve._step()\nsolve.__file__\n"),
    }
    assert cross_module_privates(trees) == {"fit: solve._step", "scripts.scan: solve._step"}


def _functions(trees):
    """(module, dotted name, called name, parameters after self or cls, def node) of every function and method.

    An ``__init__`` is named and called by its class's name; a function nested in another is named after it.
    """

    def visit(node, module, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, module, prefix + [child.name], child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional = [a.arg for a in child.args.posonlyargs + child.args.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                bound = positional[1:] if cls and not static else positional
                init = cls and child.name == "__init__"
                name = ".".join(prefix + ([] if init else [child.name]))
                yield module, name, cls if init else child.name, bound, child
                yield from visit(child, module, prefix + [child.name], None)

    for module, tree in trees.items():
        yield from visit(tree, module, [], None)


def _knobs(trees):
    """knob key -> (called name, positional parameter names after self, parameter, default or None) of each parameter."""
    knobs = {}
    for module, name, called, bound, node in _functions(trees):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults))
        for param in bound + [a.arg for a in args.kwonlyargs]:
            knobs[_key(module, f"{name}.{param}")] = (called, bound, param, defaults.get(param))
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
    trees = trees or _trees()
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


def unread_parameters(trees=None):
    """Every "module.function.parameter" that its function's body never reads, self and cls aside."""
    found = set()
    for module, name, _, bound, node in _functions(trees or _trees()):
        args = node.args
        params = bound + [a.arg for a in args.kwonlyargs] + [a.arg for a in (args.vararg, args.kwarg) if a]
        body = ast.Module(node.body, [])
        read = {n.id for n in ast.walk(body) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found.update(_key(module, f"{name}.{param}") for param in params if param not in read)
    return found


def test_every_parameter_is_read():
    found = unread_parameters()
    assert sorted(found - set(UNREAD_PARAMETERS)) == [], (
        "a parameter that its function's body never reads; delete it or add it to UNREAD_PARAMETERS"
    )


def test_unread_parameters_are_current():
    # an entry whose parameter gains a reader, or is gone, leaves the table
    assert sorted(set(UNREAD_PARAMETERS) - unread_parameters()) == []


def test_parameter_rule_finds_the_unread_parameters():
    tree = ast.parse(textwrap.dedent("""
        def solve(f, points, chords, *rest, scale=1.0, **options):
            def step(u):
                return f(u) * scale
            return step(points)

        class Fit:
            def ratio(self, other):
                return 1.0

            @classmethod
            def build(cls, values):
                return cls(values)

            @staticmethod
            def spread(values):
                return 0.0
    """))
    # a read in a nested function counts; self and cls are not parameters; a static method has neither
    assert unread_parameters({"flotilla.demo": tree}) == {
        "demo.solve.chords", "demo.solve.rest", "demo.solve.options", "demo.Fit.ratio.other",
        "demo.Fit.spread.values",
    }


def raised_names(trees=None):
    """Every "module: name" of a raise in the package trees, by the name it calls or raises; a bare raise is none."""
    found = set()
    for module, tree in (trees or _trees()).items():
        if not module.startswith("flotilla."):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                found.add(f"{module.removeprefix('flotilla.')}: {name}")
    return found


def test_every_raise_is_one_of_the_exit_code_failures():
    stray = sorted(key for key in raised_names() if key.split(": ")[1] not in RAISABLE)
    assert stray == [], "raise DomainError for bad input and SolverError for a numerical failure"


def test_errors_defines_one_class_per_failure_exit_code():
    from flotilla import errors

    tree = ast.parse((PACKAGE / "errors.py").read_text())
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == ["DomainError", "SolverError"]
    assert errors.DomainError.__bases__ == (ValueError,)
    assert errors.SolverError.__bases__ == (ArithmeticError,)


def test_raise_rule_finds_every_named_exception():
    tree = ast.parse(textwrap.dedent("""
        def solve(x):
            try:
                return step(x)
            except KeyError as exc:
                raise exc
            except TypeError:
                raise
            if x < 0:
                raise errors.DomainError("negative")
            raise ValueError
    """))
    assert raised_names({"flotilla.demo": tree, "scripts.scan": ast.parse("raise OSError")}) == {
        "demo: exc", "demo: DomainError", "demo: ValueError",
    }
