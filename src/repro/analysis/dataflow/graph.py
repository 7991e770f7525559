"""Symbol table and call graph for the whole-program rules of ``repro lint``.

The dataflow rules need to reason across function boundaries: a tainted
wire-message field handed through one helper call, or a wall-clock read
three frames below a ``Machine`` entry point.  :class:`ProgramGraph`
builds the whole-program view those rules share - every top-level class
and function of the parsed project, base-class links, per-module import
aliases - and resolves call expressions to candidate callees.

Resolution is name-based and deliberately over-approximate (no type
inference): ``self.m(...)`` resolves through the receiver's class
hierarchy (ancestors for inherited implementations, descendants for
overrides), bare names through the defining module then its imports,
and ``obj.m(...)`` on an unknown receiver falls back to every project
method named ``m``.  Over-approximation errs toward *more* paths, which
is the right direction for trust-boundary and purity analyses: a missed
edge hides a bug, a spurious edge at worst costs a reviewed suppression.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator
from weakref import WeakKeyDictionary

from repro.analysis.engine import FileContext, ProjectContext, class_attr_values

#: Container/str method names never treated as project-method calls when
#: the receiver is unknown: ``votes.append(x)`` must not resolve to some
#: unrelated class's ``append``.  Explicit ``self.append(...)`` still
#: resolves through the hierarchy.
_OPAQUE_METHOD_NAMES = {
    "append", "add", "clear", "pop", "popleft", "update", "get", "items",
    "keys", "values", "discard", "remove", "extend", "insert", "setdefault",
    "popitem", "copy", "sort", "count", "index", "join", "split", "strip",
    "encode", "decode", "hex", "format", "startswith", "endswith", "items",
}


@dataclass
class FunctionInfo:
    """One top-level function or method of the parsed project."""

    module: str
    qualname: str  # "pkg.mod.func" or "pkg.mod.Class.method"
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: FileContext
    cls: "ClassInfo | None" = None

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    def params(self) -> list[str]:
        """Positional parameter names, ``self``/``cls`` excluded."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        names += [a.arg for a in args.kwonlyargs]
        return names

    def label(self) -> str:
        """Short human label: ``Class.method`` or ``func``."""
        if self.cls is not None:
            return f"{self.cls.name}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    """One top-level class: its methods and (textual) base names."""

    module: str
    qualname: str
    name: str
    node: ast.ClassDef
    ctx: FileContext
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


def scoped_statements(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/classes.

    Events found inside a nested function belong to *that* function's
    analysis, not its enclosing one.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class ProgramGraph:
    """Whole-program symbol table + call resolution over a project."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.classes: dict[str, ClassInfo] = {}
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self.functions: dict[str, FunctionInfo] = {}  # module-level, by qualname
        self.module_functions: dict[tuple[str, str], FunctionInfo] = {}
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        self.imports: dict[str, dict[str, str]] = {}  # module -> alias -> dotted
        self._subclasses: dict[str, list[ClassInfo]] | None = None
        for ctx in project.files:
            self._index_file(ctx)

    # -- indexing ----------------------------------------------------------

    def _index_file(self, ctx: FileContext) -> None:
        aliases: dict[str, str] = {}
        self.imports[ctx.module] = aliases
        for node in ctx.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    aliases[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative import: anchor at this package
                    parts = ctx.module.split(".")
                    parts = parts[: len(parts) - node.level]
                    base = ".".join(parts + ([node.module] if node.module else []))
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    module=ctx.module,
                    qualname=f"{ctx.module}.{node.name}",
                    name=node.name,
                    node=node,
                    ctx=ctx,
                )
                self.functions[info.qualname] = info
                self.module_functions[(ctx.module, node.name)] = info
            elif isinstance(node, ast.ClassDef):
                self._index_class(ctx, node)

    def _index_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        cls = ClassInfo(
            module=ctx.module,
            qualname=f"{ctx.module}.{node.name}",
            name=node.name,
            node=node,
            ctx=ctx,
            bases=[b.attr if isinstance(b, ast.Attribute) else b.id
                   for b in node.bases
                   if isinstance(b, (ast.Attribute, ast.Name))],
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    module=ctx.module,
                    qualname=f"{cls.qualname}.{item.name}",
                    name=item.name,
                    node=item,
                    ctx=ctx,
                    cls=cls,
                )
                cls.methods[item.name] = info
                self.methods_by_name.setdefault(item.name, []).append(info)
        self.classes[cls.qualname] = cls
        self.classes_by_name.setdefault(cls.name, []).append(cls)

    # -- hierarchy ---------------------------------------------------------

    def resolve_class_name(self, name: str, module: str) -> ClassInfo | None:
        """A class referenced by ``name`` from ``module``, if indexed."""
        cls = self.classes.get(f"{module}.{name}")
        if cls is not None:
            return cls
        target = self.imports.get(module, {}).get(name)
        if target is not None and target in self.classes:
            return self.classes[target]
        candidates = self.classes_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def ancestors(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        """``cls`` and its transitive (resolvable) base classes."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            cur = stack.pop()
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            yield cur
            for base in cur.bases:
                resolved = self.resolve_class_name(base, cur.module)
                if resolved is not None:
                    stack.append(resolved)

    def subclasses(self, cls: ClassInfo) -> list[ClassInfo]:
        """Transitive subclasses of ``cls`` across the project."""
        if self._subclasses is None:
            self._subclasses = {}
            for candidate in self.classes.values():
                for ancestor in self.ancestors(candidate):
                    if ancestor is not candidate:
                        self._subclasses.setdefault(ancestor.qualname, []).append(
                            candidate
                        )
        out: list[ClassInfo] = []
        seen: set[str] = set()
        stack = list(self._subclasses.get(cls.qualname, []))
        while stack:
            sub = stack.pop()
            if sub.qualname in seen:
                continue
            seen.add(sub.qualname)
            out.append(sub)
            stack.extend(self._subclasses.get(sub.qualname, []))
        return out

    def resolve_method(self, cls: ClassInfo, name: str) -> list[FunctionInfo]:
        """Candidate implementations of ``cls.name``: MRO walk + overrides."""
        found: dict[str, FunctionInfo] = {}
        for ancestor in self.ancestors(cls):
            if name in ancestor.methods and name not in found:
                found[ancestor.methods[name].qualname] = ancestor.methods[name]
                break  # nearest inherited implementation
        for sub in self.subclasses(cls):
            if name in sub.methods:
                found.setdefault(sub.methods[name].qualname, sub.methods[name])
        return list(found.values())

    # -- call resolution ---------------------------------------------------

    def resolve_call(self, call: ast.Call, caller: FunctionInfo) -> list[FunctionInfo]:
        """Candidate callees of ``call`` as written inside ``caller``."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_bare(func.id, caller.module)
        if isinstance(func, ast.Attribute):
            recv = func.value
            if (
                isinstance(recv, ast.Name)
                and recv.id in ("self", "cls")
                and caller.cls is not None
            ):
                targets = self.resolve_method(
                    caller.cls, func.attr
                ) or self._bound_class_inits(caller.cls, func.attr)
                if targets:
                    return targets
            # ``module.func(...)`` through an import alias.
            if isinstance(recv, ast.Name):
                target = self.imports.get(caller.module, {}).get(recv.id)
                if target is not None:
                    qual = f"{target}.{func.attr}"
                    if qual in self.functions:
                        return [self.functions[qual]]
                    if qual in self.classes:
                        init = self.classes[qual].methods.get("__init__")
                        return [init] if init else []
            # Unknown receiver: every project method of that name.
            if func.attr in _OPAQUE_METHOD_NAMES:
                return []
            return list(self.methods_by_name.get(func.attr, []))
        return []

    def _bound_class_inits(self, cls: ClassInfo, name: str) -> list[FunctionInfo]:
        """Constructors behind ``self.NAME(...)`` for a class-valued attribute.

        A class body binding ``NAME = SomeClass`` declares which flavour
        of a component its instances build (``CHECKER = LockingChecker``);
        every such binding in the hierarchy is a candidate callee.
        """
        found: dict[str, FunctionInfo] = {}
        for owner in [*self.ancestors(cls), *self.subclasses(cls)]:
            for value in class_attr_values(owner.node, (name,)):
                bound = (
                    self.resolve_class_name(value.id, owner.module)
                    if isinstance(value, ast.Name)
                    else None
                )
                if bound is not None:
                    for init in self.resolve_method(bound, "__init__"):
                        found.setdefault(init.qualname, init)
        return list(found.values())

    def _resolve_bare(self, name: str, module: str) -> list[FunctionInfo]:
        info = self.module_functions.get((module, name))
        if info is not None:
            return [info]
        target = self.imports.get(module, {}).get(name)
        if target is not None:
            if target in self.functions:
                return [self.functions[target]]
            if target in self.classes:
                init = self.classes[target].methods.get("__init__")
                return [init] if init else []
        cls = self.classes.get(f"{module}.{name}")
        if cls is not None:
            init = cls.methods.get("__init__")
            return [init] if init else []
        return []


_GRAPH_CACHE: "WeakKeyDictionary[ProjectContext, ProgramGraph]" = WeakKeyDictionary()


def graph_for(project: ProjectContext) -> ProgramGraph:
    """The (cached) program graph of one analysis run's project."""
    graph = _GRAPH_CACHE.get(project)
    if graph is None:
        graph = ProgramGraph(project)
        _GRAPH_CACHE[project] = graph
    return graph
