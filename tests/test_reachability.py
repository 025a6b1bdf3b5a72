"""Every ``repro`` module is reached by something a claim runs, or is allowlisted.

"Reached" is an import walk with :mod:`ast` (nothing is imported) from
the roots: the ``repro`` console script and the ``python -m`` entry
modules, the modules of the registered experiments, every
``repro.testing`` module, and every file under ``examples/`` and
``benchmarks/``.  Tests are not roots.  A package ``__init__`` is not a
user: a name it re-exports resolves to the module that defines it only
when someone imports that name, and only the imports the ``__init__``'s
own code uses are followed.  A module that nothing but its own tests
reaches serves no claim: delete it, or list it in ``ALLOWLIST`` with the
reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Unreached modules that stay, with the reason.
ALLOWLIST = {
    "repro.resilience.faults": "fault injectors that spawned workers must be "
    "able to import by module name",
    "repro.traffic.extra": "OnOffTraffic drives the engine-equivalence "
    "property tests",
}


class ImportGraph:
    """The ``ast`` import graph of one source package."""

    def __init__(self, src: Path, package: str):
        self.files: dict[str, Path] = {}
        for path in sorted((src / package).rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.files[".".join(parts)] = path
        self._trees: dict[Path, ast.Module] = {}

    def is_package(self, module: str) -> bool:
        return self.files[module].name == "__init__.py"

    def _tree(self, path: Path) -> ast.Module:
        if path not in self._trees:
            self._trees[path] = ast.parse(path.read_text(), filename=str(path))
        return self._trees[path]

    def _exports(self, package: str) -> dict[str, tuple[str, str]]:
        """Name -> (module, name) for what a package ``__init__`` re-exports.

        Covers ``from m import name`` at top level and lazy tables: a
        dict literal mapping names to this package's module paths.
        """
        table: dict[str, tuple[str, str]] = {}
        for node in self._tree(self.files[package]).body:
            if isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    table[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                pairs = list(zip(node.value.keys, node.value.values))
                if pairs and all(
                    isinstance(k, ast.Constant) and isinstance(v, ast.Constant)
                    and isinstance(v.value, str) and v.value in self.files
                    for k, v in pairs
                ):
                    table.update((k.value, (v.value, k.value)) for k, v in pairs)
        return table

    def resolve(self, module: str, name: str | None = None) -> str | None:
        """The module ``from module import name`` (or ``import module``) uses."""
        if module not in self.files:
            return None
        if name is None:
            return module
        if f"{module}.{name}" in self.files:
            return f"{module}.{name}"
        if self.is_package(module):
            target = self._exports(module).get(name)
            if target is not None:
                return self.resolve(*target)
        return module

    def targets(self, path: Path, is_init: bool = False) -> set[str]:
        """Modules a file reaches through its imports (at any depth).

        A package ``__init__`` only reaches what its own code uses: an
        import whose bound name is never read is a re-export.
        """
        tree = self._tree(path)
        bound: list[tuple[str, str]] = []  # (local name, reached module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = self.resolve(alias.name)
                    if target is not None:
                        bound.append((alias.asname or alias.name.split(".")[0], target))
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    target = self.resolve(node.module, alias.name)
                    if target is not None:
                        bound.append((alias.asname or alias.name, target))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        return {
            target
            for local, target in bound
            if not is_init or local in loaded
        }

    def reached(self, root_modules: set[str], root_files: list[Path]) -> set[str]:
        """Every module reachable from the roots (ancestor packages included)."""
        seen: set[str] = set()
        queue: list[str] = []

        def visit(module: str) -> None:
            parts = module.split(".")
            for depth in range(1, len(parts) + 1):
                name = ".".join(parts[:depth])
                if name in self.files and name not in seen:
                    seen.add(name)
                    queue.append(name)

        for module in root_modules:
            visit(module)
        for path in root_files:
            for target in self.targets(path):
                visit(target)
        while queue:
            module = queue.pop()
            for target in self.targets(self.files[module], self.is_package(module)):
                visit(target)
        return seen

    def unreached(self, root_modules: set[str], root_files: list[Path]) -> set[str]:
        reached = self.reached(root_modules, root_files)
        return {m for m in self.files if not self.is_package(m) and m not in reached}


def _repo_unreached() -> tuple[set[str], set[str]]:
    """(unreached modules, all modules) of ``src/repro``."""
    from repro.experiments import iter_experiments

    graph = ImportGraph(REPO / "src", "repro")
    roots = {"repro.cli"}  # the `repro` console script (pyproject.toml)
    roots |= {m for m in graph.files if m.endswith(".__main__")}
    roots |= {experiment.run.__module__ for experiment in iter_experiments()}
    roots |= {m for m in graph.files if m.startswith("repro.testing.")}
    files = [
        path
        for folder in ("examples", "benchmarks")
        for path in sorted((REPO / folder).rglob("*.py"))
    ]
    return graph.unreached(roots, files), set(graph.files)


def test_every_module_is_reached_or_allowlisted():
    unreached, _ = _repo_unreached()
    orphans = sorted(unreached - set(ALLOWLIST))
    assert not orphans, (
        f"{orphans}: reached by no CLI command, registered experiment, "
        "repro.testing module, example or benchmark; delete them or add "
        "each to ALLOWLIST with the reason it stays"
    )


def test_allowlist_has_no_stale_entries():
    unreached, modules = _repo_unreached()
    missing = sorted(set(ALLOWLIST) - modules)
    now_reached = sorted(set(ALLOWLIST) & (modules - unreached))
    assert not (missing or now_reached), (
        f"stale ALLOWLIST entries: {missing} no longer exist, {now_reached} are now reached"
    )


def test_walker_reports_an_orphan(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    # The package re-exports the orphan; a re-export is not a use.
    (pkg / "__init__.py").write_text("from pkg.orphan import helper\n")
    (pkg / "orphan.py").write_text("def helper():\n    return 1\n")
    # Names resolve through both re-export forms: an import and a lazy table.
    (pkg / "sub" / "__init__.py").write_text(
        "from pkg.sub.impl import tool\n_EXPORTS = {'lazy_tool': 'pkg.sub.lazy'}\n"
    )
    (pkg / "sub" / "impl.py").write_text("def tool():\n    return 2\n")
    (pkg / "sub" / "lazy.py").write_text("def lazy_tool():\n    return 3\n")
    (pkg / "main.py").write_text("from pkg.sub import tool\n")
    script = tmp_path / "script.py"
    script.write_text("from pkg.sub import lazy_tool\n")

    graph = ImportGraph(tmp_path, "pkg")
    assert graph.unreached({"pkg.main"}, [script]) == {"pkg.orphan"}
    assert graph.unreached({"pkg.main"}, []) == {"pkg.orphan", "pkg.sub.lazy"}
