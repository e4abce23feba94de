"""The public API: every exported name is part of what the program runs.

The package is read with ``ast``, not imported piecemeal: each top-level
definition maps to the package names it reads, resolved through its module's
own definitions and relative imports.  A function is reached when a reached
definition reads it; a type or constant is reached when a reached function
returns it or reads it, so annotations do not count.
"""

import ast
import pathlib

import xferopt as xo

PACKAGE = pathlib.Path(xo.__file__).parent

# The installed script's entry point, which every CLI command is reached from.
CLI_ROOT = ("cli", "console_main")

# Public names that no CLI command reaches, each kept on purpose.
ALLOWED_ROOTS = {
    # The paper's reference pulse and its corrector.
    "fastest_pulse", "minimal_corrector_energy",
    # Called only by bench/tracing.py's per-layer micro-suite; each goes once that moves.
    "infidelity_time",  # ROADMAP item 2
    "infidelity_markovian",  # ROADMAP item 2
    "infidelity_gradient",  # ROADMAP item 2
    "sample_noise_trajectory",  # ROADMAP item 2
}

# Package metadata, not a function, type or constant of the program.
METADATA = {"__version__"}


class _Reads(ast.NodeVisitor):
    """The names a definition reads, leaving out annotations."""

    def __init__(self):
        self.names = set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_arg(self, node):
        pass  # a parameter and its annotation

    def visit_FunctionDef(self, node):
        args = node.args
        for child in (*node.decorator_list, *args.defaults, *args.kw_defaults, *node.body):
            if child is not None:
                self.visit(child)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _package():
    """``(definitions, imports)``: per module, its top-level names with what each reads, and its relative imports."""
    definitions, imports = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        definitions[module], imports[module] = {}, {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module][alias.asname or alias.name] = (node.module, alias.name)
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            reads = _Reads()
            reads.visit(node)
            for name in names:
                definitions[module][name] = reads.names
    return definitions, imports


def _resolve(definitions, imports, module, name):
    """The ``(module, name)`` that defines ``name`` as ``module`` sees it, or None outside the package."""
    while name not in definitions[module]:
        if name not in imports[module]:
            return None
        module, name = imports[module][name]
    return module, name


def _reached(definitions, imports, roots):
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        for read in definitions[module][name]:
            target = _resolve(definitions, imports, module, read)
            if target is not None:
                todo.append(target)
    return seen


def test_every_public_name_is_reached_from_the_cli_or_an_allowed_root():
    definitions, imports = _package()
    public = {name: _resolve(definitions, imports, "__init__", name) for name in xo.__all__}
    assert None not in public.values()
    assert ALLOWED_ROOTS <= set(public)
    reached = _reached(definitions, imports, [CLI_ROOT, *(public[name] for name in ALLOWED_ROOTS)])
    assert {name for name, key in public.items() if key not in reached} == METADATA


def test_allowed_roots_are_not_reached_from_the_cli():
    # An allowed root that a command reaches no longer needs its place on the list.
    definitions, imports = _package()
    reached = _reached(definitions, imports, [CLI_ROOT])
    assert {name for name in ALLOWED_ROOTS if _resolve(definitions, imports, "__init__", name) in reached} == set()
