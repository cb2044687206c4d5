"""The repo states only what exists (DESIGN.md §3).

One AST index of ``src/`` backs two checks, and nothing from ``repro`` is
imported: every backticked ``repro.…`` path, ``Class.attr`` and ``*.py``
path (with its ``::name`` suffix) in DESIGN.md, README.md and
EXPERIMENTS.md resolves; and every function, class and method under
``src/`` is named by code in ``src/``, ``examples/`` or ``benchmarks/``.
A use of a name counts for every definition of that name: identifiers,
identifier strings (``getattr``) and ``.name(`` in emitted code count;
imports, ``__all__`` entries and docstrings do not.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
USERS = ("src", "examples", "benchmarks")

#: Definitions no product code names, each with the reason it stays.
ALLOWED = {
    "runtime/backends/asyncio_backend.py::take_loop_errors":
        "the test plane's loop-error guard (tests/conftest.py) drains it",
    "runtime/backends/asyncio_backend.py::live_backends":
        "the test plane's leak guard (tests/conftest.py) sweeps it",
    "streams/aggregate.py::AggregationOperator._aggregate_group":
        "the rescan-every-flush reference the flush oracle compares against",
    "sensors/faults.py::FlakySensor":
        "fault injection: a sensor that unpublishes and rejoins",
    "sensors/faults.py::MalformedPayloadSensor":
        "fault injection: a sensor whose payloads break its schema",
}

_TICKED = re.compile(r"`([^`\n]+)`")
_FILE = re.compile(r"([\w./-]+\.py)((?:::[\w.]+)*)")
_DOTTED = re.compile(r"repro(?:\.\w+)+")
_CLASS_ATTR = re.compile(r"([A-Z]\w*)\.([a-z_]\w*)")
_SELF_ATTR = re.compile(r"\bself\.(\w+)\s*(?::[^=]+)?=[^=]")
_EMITTED = re.compile(r"\.([A-Za-z_]\w*)\(")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> list[str]:
    """What a statement binds at its own level."""
    if isinstance(node, _DEFS):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = getattr(node, "targets", None) or [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


class Index:
    """Every module, class and definition under a source root."""

    def __init__(self, root: Path):
        self.root = root
        #: dotted module -> bound name -> node, or the module it is
        #: imported from (a str).
        self.modules: dict[str, dict[str, "ast.AST | str"]] = {}
        self.classes: dict[str, list[ast.ClassDef]] = {}
        #: (``file::qualname``, name, node, path)
        self.definitions: list[tuple[str, str, ast.AST, Path]] = []
        for path in sorted(root.rglob("*.py")):
            parts = list(path.relative_to(root).with_suffix("").parts)
            package = parts[:-1]
            if parts[-1] == "__init__":
                package = parts = parts[:-1]
            tree = ast.parse(path.read_text())
            names = self.modules[".".join(parts)] = {}
            for node in tree.body:
                names.update(dict.fromkeys(_names(node), node))
                if isinstance(node, ast.ImportFrom):
                    base = package[:len(package) + 1 - node.level] \
                        if node.level else []
                    source = ".".join(base + [node.module or ""]).strip(".")
                    for alias in node.names:
                        names[alias.asname or alias.name] = \
                            f"{source}.{alias.name}"
            self._collect(tree.body, path, "")

    def _collect(self, body: list, path: Path, prefix: str) -> None:
        where = "/".join(path.relative_to(self.root).parts[1:])
        for node in body:
            if isinstance(node, _DEFS):
                qualname = prefix + node.name
                self.definitions.append(
                    (f"{where}::{qualname}", node.name, node, path))
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, []).append(node)
                    self._collect(node.body, path, qualname + ".")

    def has_member(self, cls: ast.ClassDef, attr: str) -> bool:
        """``attr`` is bound in ``cls``'s body, set on ``self`` in it, or
        may come from a base (a base outside the index may bind anything)."""
        if attr in {n for node in cls.body for n in _names(node)} \
                | set(_SELF_ATTR.findall(ast.unparse(cls))):
            return True
        bases = [getattr(b, "id", None) or getattr(b, "attr", None)
                 for b in cls.bases if not isinstance(b, ast.Subscript)]
        closed = ("object", "ABC", "Protocol")
        return any(name not in self.classes and name not in closed
                   or any(self.has_member(c, attr)
                          for c in self.classes.get(name, ()))
                   for name in bases)

    def resolve(self, dotted: str) -> bool:
        """Whether ``repro.module.Name[.attr]`` names something."""
        parts = dotted.split(".")
        cut = max((i for i in range(1, len(parts) + 1)
                   if ".".join(parts[:i]) in self.modules), default=0)
        if not cut:
            return False
        rest = parts[cut:]
        node = self.modules[".".join(parts[:cut])].get(rest[0]) if rest \
            else True
        if isinstance(node, str):  # re-exported: follow the import
            return self.resolve(".".join([node] + rest[1:]))
        if isinstance(node, ast.ClassDef) and len(rest) > 1:
            return self.has_member(node, rest[1])
        return node is not None


def stale_names(text: str, index: Index, root: Path = ROOT) -> list[str]:
    """Backticked names and paths in ``text`` that do not resolve."""
    stale = []
    for ticked in _TICKED.findall(text):
        if file := _FILE.match(ticked):
            ok = _file_resolves(file[1], file[2], root)
        elif dotted := _DOTTED.match(ticked):
            ok = index.resolve(dotted[0])
        elif (pair := _CLASS_ATTR.match(ticked)) and pair[1] in index.classes:
            ok = any(index.has_member(c, pair[2])
                     for c in index.classes[pair[1]])
        else:
            continue
        if not ok:
            stale.append(ticked)
    return stale


def _file_resolves(path: str, names: str, root: Path) -> bool:
    """The file exists (as given, under ``src/`` or ``src/repro/``, or by
    its bare name anywhere) and binds every ``::``-suffix name."""
    found = [c for c in (root / path, root / "src" / path,
                         root / "src/repro" / path) if c.is_file()]
    if "/" not in path:
        found += root.glob(f"[sbte]*/**/{path}")
    if not found:
        return False
    bound = {n for node in ast.walk(ast.parse(found[0].read_text()))
             for n in _names(node)}
    return all(name in bound for name in re.findall(r"\w+", names))


def unnamed_definitions(index: Index, users: list[Path]) -> list[str]:
    """``file::qualname`` of the definitions that no code under ``users``
    names outside the definition's own body."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path in users:
        tree = ast.parse(path.read_text())
        skip = {id(n) for node in tree.body if _names(node) == ["__all__"]
                for n in ast.walk(node)}
        skip |= {id(node.body[0].value) for node in ast.walk(tree)
                 if isinstance(node, (ast.Module, *_DEFS))
                 and ast.get_docstring(node)}
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            found = [getattr(node, "id", None) or getattr(node, "attr", None)]
            if isinstance(node, ast.alias) and node.asname in loaded:
                found = [node.name]  # used under the name it is imported as
            if isinstance(node, ast.Constant) and id(node) not in skip \
                    and isinstance(node.value, str):
                found = _EMITTED.findall(node.value) + (
                    [node.value] if node.value.isidentifier() else [])
            for name in found:
                if isinstance(name, str):
                    uses.setdefault(name, []).append((path, node.lineno))
    return [where for where, name, node, home in index.definitions
            if not (name.startswith("__") and name.endswith("__"))
            and all(path == home and node.lineno <= line <= node.end_lineno
                    for path, line in uses.get(name, ()))]


def _user_files(root: Path) -> list[Path]:
    return [p for user in USERS for p in sorted((root / user).rglob("*.py"))]


INDEX = Index(ROOT / "src")


def test_every_backticked_name_in_the_docs_resolves():
    stale = {doc: stale_names((ROOT / doc).read_text(), INDEX)
             for doc in DOCS}
    assert stale == {doc: [] for doc in DOCS}


def test_every_src_definition_has_a_product_caller():
    assert sorted(unnamed_definitions(INDEX, _user_files(ROOT))) == \
        sorted(ALLOWED)


def test_the_checks_catch_a_planted_stale_name_and_test_only_function(
        tmp_path):
    design = (ROOT / "DESIGN.md").read_text() + (
        "`repro.scenario.no_such_flow` `EventWarehouse.no_such_rows` "
        "`runtime/plan.py::no_such_plan` `tests/unit/no_such_test.py`")
    assert stale_names(design, INDEX) == [
        "repro.scenario.no_such_flow", "EventWarehouse.no_such_rows",
        "runtime/plan.py::no_such_plan", "tests/unit/no_such_test.py"]

    for where, text in (
            ("src/pkg/mod.py", "def used():\n    pass\n\n\n"
             "def only_tests():\n    pass\n\n\nused()\n"),
            ("tests/test_mod.py", "from pkg.mod import only_tests\n\n"
             "only_tests()\n")):
        (tmp_path / where).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / where).write_text(text)
    assert unnamed_definitions(Index(tmp_path / "src"),
                               _user_files(tmp_path)) == ["mod.py::only_tests"]
