"""The package's modules import one another strictly down one layer order,
none of them reaches for another module's private (underscore) names, and
none imports a name it never reads."""

import ast
from pathlib import Path

import phasetop

# lowest layer first: a module may import from a lower layer only
LAYERS = [
    {"errors", "runtime"},
    {"phasespace", "numkit"},
    {"bands"},
    {"models", "invariants"},
    {"gauge"},
    {"cli"},
]
LEVEL = {name: i for i, layer in enumerate(LAYERS) for name in layer}
PACKAGE = Path(phasetop.__file__).resolve().parent


def relative_imports(path: Path) -> set:
    """The package modules that the module at path imports relatively.  A
    name that `from . import` takes from the package root and that is no
    module (such as __version__) comes from __init__, which is exempt."""
    targets = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        if node.module:
            targets.add(node.module.split(".")[0])
        else:
            targets.update(alias.name for alias in node.names
                           if (PACKAGE / f"{alias.name}.py").exists())
    return targets


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} == set(LEVEL)


def test_relative_imports_go_down_the_layers():
    upward = [(name, target)
              for name in sorted(LEVEL)
              for target in sorted(relative_imports(PACKAGE / f"{name}.py"))
              if LEVEL[target] >= LEVEL[name]]
    assert upward == []


def private_imports(path: Path) -> set:
    """The (module, name) pairs of underscore names that the module at path
    takes from another package module: by `from .module import _name`, or as
    `module._name` after `from . import module`.  Dunder names are exempt."""
    tree = ast.parse(path.read_text())
    modules, taken = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                taken.update((node.module, alias.name) for alias in node.names)
            else:
                modules.update(alias.asname or alias.name for alias in node.names
                               if (PACKAGE / f"{alias.name}.py").exists())
    taken.update((node.value.id, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules)
    return {(module, name) for module, name in taken
            if name.startswith("_") and not name.startswith("__")}


def test_no_module_imports_another_modules_private_names():
    reached = [(path.stem, *pair)
               for path in sorted(PACKAGE.glob("*.py"))
               for pair in sorted(private_imports(path))]
    assert reached == []


# the per-group pipeline; gauge-demo reads its group, frame and loops from
# invariants.verify_group_fields instead
PIPELINE = {"spectrum_on_grid", "find_gapped_groups", "group_for_range", "smooth_frame",
            "frame_residuals", "chern_plaquette", "chern_winding", "m_field", "km_boundary",
            "km_census", "kramers_check", "refine_grid"}


def test_cli_builds_no_pipeline_of_its_own():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    named = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert PIPELINE & named == set()


def unused_imports(path: Path) -> list:
    """The names that the module at path imports and never reads.  A read is
    a load of the name in code or in an (unquoted) annotation; a name that
    __all__ lists is read by the package's users, and __future__ imports are
    exempt."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    unused = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              for name in unused_imports(path)]
    assert unused == []
