"""No script in scripts/ rebinds anything in flotilla.

A script that times or counts the package's work by overwriting a module's
functions, or the entries of ``cli.CHECKS``, loses its stage without an error
when the package renames it. The run reports what it did itself (the
``stage_seconds`` of report.json), so the scripts read that instead.
"""

import ast

from test_dead_code import SCRIPTS, _imports, _resolve

CHECKS = ("symbol", "flotilla.cli", "CHECKS")
# the dict methods that change a mapping in place
MUTATORS = ("update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__")


def _patches(tree):
    """Line numbers of the statements that rebind a flotilla module attribute or change cli.CHECKS."""
    imports = _imports(tree, {})

    def names(node):
        return _resolve(node, imports, None, set()) or ("",)

    def patched(target):
        if isinstance(target, ast.Attribute):
            return names(target.value)[0] == "module"
        return isinstance(target, ast.Subscript) and names(target.value) == CHECKS

    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            lines.update(node.lineno for target in node.targets if patched(target))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and patched(node.target):
            lines.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args:
            if node.func.id in ("setattr", "delattr") and names(node.args[0])[0] == "module":
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS and names(node.func.value) == CHECKS:
                lines.add(node.lineno)
    return sorted(lines)


def test_scripts_rebind_nothing_in_flotilla():
    found = {path.name: _patches(ast.parse(path.read_text(), str(path))) for path in sorted(SCRIPTS.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_each_kind_of_patch():
    patches = """
from flotilla import cli
import flotilla.curve as curve
from flotilla.cli import CHECKS
cli.write_report = None
curve.area += 1
setattr(cli, "compute_bundle", None)
cli.CHECKS["omega"] = None
CHECKS.update({})
del cli.CHECKS["radon"]
"""
    assert _patches(ast.parse(patches)) == [5, 6, 7, 8, 9, 10]
    # attributes of objects the package returns are not the package's
    plain = "from flotilla import cli\nconfig = cli.load_config('c.json')\nconfig.output_dir = 'out'\n"
    assert _patches(ast.parse(plain)) == []
