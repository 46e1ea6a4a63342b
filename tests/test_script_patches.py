"""No script in scripts/ rebinds anything in flotilla, or runs a command other than through cli.main.

A script that times or counts the package's work by overwriting a module's
functions, or the entries of ``cli.CHECKS``, loses its stage without an error
when the package renames it. A script that calls ``cli.load_config``,
``cli.cmd_run`` or ``cli.cmd_carousel`` itself, or copies a command's steps
(``compute_bundle``, ``write_curves_csv``, ``write_figure``, ``run_checks``),
times or renders something other than what the command line runs. Each
command reports what it did itself (the ``stage_seconds`` of report.json and
carousel.json, and the run's areas and ratios in report.json), so the
scripts call ``cli.main`` and read that instead.
"""

import ast

from test_dead_code import SCRIPTS, _imports, _resolve

CHECKS = ("symbol", "flotilla.cli", "CHECKS")
# the dict methods that change a mapping in place
MUTATORS = ("update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__")
# the steps of cli.main that a script must not call itself
COMMAND_STEPS = [
    ("symbol", "flotilla.cli", name)
    for name in ("load_config", "cmd_run", "cmd_carousel", "compute_bundle", "write_curves_csv", "write_figure", "run_checks")
]


def _patches(tree):
    """Line numbers of the statements that rebind a flotilla module attribute or change cli.CHECKS,
    and of the calls of a command's steps outside cli.main."""
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
        if isinstance(node, ast.Call) and names(node.func) in COMMAND_STEPS:
            lines.add(node.lineno)
    return sorted(lines)


def test_scripts_rebind_nothing_in_flotilla():
    found = {path.name: _patches(ast.parse(path.read_text(), str(path))) for path in sorted(SCRIPTS.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_each_kind_of_patch():
    patches = """
from flotilla import cli
import flotilla.curve as curve
from flotilla.cli import CHECKS, load_config, write_figure
cli.write_json = None
curve.area += 1
setattr(cli, "compute_bundle", None)
cli.CHECKS["omega"] = None
CHECKS.update({})
del cli.CHECKS["radon"]
config = load_config("c.json")
cli.cmd_run(config)
code = cli.cmd_carousel(config, q=3, p=1, s0=0.0)
bundle = cli.compute_bundle(curve.Ellipse(2.0, 1.0), 1.0, 64)
cli.write_curves_csv("curves.csv", [bundle])
write_figure("figure.svg", [bundle])
record = cli.run_checks([bundle], "omega")
"""
    assert _patches(ast.parse(patches)) == list(range(5, 18))
    # attributes of objects the package returns are not the package's, and cli.main runs a command whole
    plain = "from flotilla import cli\nconfig = cli.RunConfig({}, [])\nconfig.output_dir = 'out'\ncli.main(['run', 'c.json'])\n"
    assert _patches(ast.parse(plain)) == []
