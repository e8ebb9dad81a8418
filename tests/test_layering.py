"""The package's import graph, read from the source with `ast`.

One table pins which modules of `errexp` each module imports, at any depth
of its body (the CLI imports its subcommands' modules inside functions).
The layering rules below hold on that table, and no module imports another
module's underscore name unless this file allow-lists it with a reason.
Packing each row's live entries to the front, the layout of ragged stacks,
is `prob_core.live_groups`'s alone, again unless allow-listed here, and
only `legendre` lays out a `Mixture.stack`: every other module builds its
mixtures through `Mixture.packed`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "errexp"

# module -> the errexp modules it imports; "__init__" is the package itself
IMPORTS = {
    "__init__": set(),
    "exceptions": set(),
    "prob_core": {"exceptions"},
    "optimize": {"exceptions"},
    "legendre": {"exceptions", "optimize", "prob_core"},
    "exact_regions": {"exceptions", "legendre", "optimize", "prob_core"},
    "channel_exponents": {"exceptions", "legendre", "optimize", "prob_core"},
    "kl_ball": {"exceptions", "legendre", "optimize", "prob_core"},
    "dht_bounds": {"channel_exponents", "exceptions", "kl_ball", "optimize",
                   "prob_core"},
    "simulate": {"exact_regions", "exceptions", "legendre", "prob_core"},
    "cli": {"__init__", "dht_bounds", "exact_regions", "exceptions",
            "legendre", "prob_core", "simulate"},
}

# (importer, module, name) -> why the importer may use that private name
PRIVATE_ALLOWED = {
    ("simulate", "exact_regions", "_check_assumption"):
        "the simulator rejects a channel whose rows do not share support "
        "with the same check and message as the exact regions it verifies",
}

# module -> why it may pack live entries itself with np.argsort(~mask)
PACKING_ALLOWED = {
    "legendre": "`Mixture.packed` pads the components of a problem to its "
                "widest live support, the padded (k, m) layout of "
                "`Mixture`, not the packing of rows of one live count that "
                "`live_groups` gives",
}


def imported_names() -> dict[str, dict[str, set[str]]]:
    """importer -> {module -> names it imports from that module}, over
    every relative import of every module of the package."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps: dict[str, set[str]] = {}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "errexp"
                               for a in node.names), (
                    f"{path.name}: import errexp modules relatively")
            if not isinstance(node, ast.ImportFrom):
                continue
            # every import of the package is relative, so this reads them all
            assert node.level <= 1 and not (node.module or "").startswith(
                "errexp"), f"{path.name}: import errexp modules relatively"
            if node.level == 0:
                continue
            for alias in node.names:
                # `from . import x`: a module of the package, or a name of
                # the package itself
                module = node.module or (
                    alias.name if (PACKAGE / f"{alias.name}.py").exists()
                    else "__init__")
                deps.setdefault(module, set()).add(alias.name)
        graph[path.stem] = deps
    return graph


def test_import_graph_is_pinned():
    graph = imported_names()
    assert {m: set(deps) for m, deps in graph.items()} == IMPORTS


def test_layers():
    # the KL-ball layer needs no channel coding and no scheme
    assert IMPORTS["kl_ball"] <= {"exceptions", "legendre", "optimize",
                                  "prob_core"}
    # the channel layer needs no source coding
    assert IMPORTS["channel_exponents"].isdisjoint({"dht_bounds", "kl_ball"})
    assert not any("cli" in deps for deps in IMPORTS.values())


def test_no_private_names_cross_modules():
    private = {(importer, module, name)
               for importer, deps in imported_names().items()
               for module, names in deps.items() for name in names
               if name.startswith("_") and not name.endswith("__")}
    assert private == set(PRIVATE_ALLOWED)


def packing_modules() -> set[str]:
    """The modules that call np.argsort on an inverted mask, the stable
    sort that packs each row's live entries to the front."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "argsort" and node.args
                    and isinstance(node.args[0], ast.UnaryOp)
                    and isinstance(node.args[0].op, ast.Invert)):
                found.add(path.stem)
    return found


def test_live_entries_are_packed_in_prob_core():
    assert packing_modules() - {"prob_core"} == set(PACKING_ALLOWED)


def stack_modules() -> set[str]:
    """The modules that call `Mixture.stack`."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "stack"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "Mixture"):
                found.add(path.stem)
    return found


def test_mixtures_are_laid_out_in_legendre():
    assert stack_modules() == {"legendre"}
