"""The repo-invariant rules: REP101 -- REP106.

Each rule machine-checks one contract the architecture notes promise and
the test suite previously enforced only dynamically (or not at all):

========  =============================  ==========================================
Code      Name                           Contract
========  =============================  ==========================================
REP101    float-identity-comparison      ``x is math.inf`` is only true for the
                                         interned singleton; NumPy-derived
                                         infinities fail it (PR 3 bug class).
REP102    unguarded-numpy-import         The no-NumPy tier: only the explicit
                                         backend modules may import numpy/scipy
                                         unconditionally at module top level.
REP103    env-config-read                ``REPRO_*`` knobs are read by the two
                                         registries and ``repro.runtime`` only;
                                         everything else goes through
                                         ``repro.configure``.
REP104    mutator-version-bump           ``WeightedGraph`` methods that mutate the
                                         adjacency must bump ``_version`` (CSR /
                                         digest cache invalidation).
REP105    unregistered-subclass          An engine/backend subclass that is never
                                         passed to its ``register_*`` function is
                                         dead code the registries cannot route to.
REP106    global-random-call             Library code draws from explicit seeded
                                         ``random.Random`` instances (or the
                                         ``QuantumRng`` shim), never the shared
                                         module-global stream.
========  =============================  ==========================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

__all__ = [
    "FloatIdentityComparison",
    "UnguardedNumpyImport",
    "EnvConfigRead",
    "MutatorVersionBump",
    "UnregisteredSubclass",
    "GlobalRandomCall",
]


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``os.environ.get`` -> ``("os", "environ", "get")``; None if not a pure chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


# ---------------------------------------------------------------------- #
@register_rule
class FloatIdentityComparison(Rule):
    """REP101: ``is`` / ``is not`` against a float is an identity trap."""

    code = "REP101"
    name = "float-identity-comparison"
    summary = (
        "`is`/`is not` comparison against a float (math.inf, math.nan, a float "
        "literal/constant or float(...)): use ==, math.isinf or math.isnan"
    )
    scope = "all"
    node_types = (ast.Compare,)

    def visit(self, node: ast.Compare) -> Iterator[Finding]:
        sides = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Is, ast.IsNot)):
                continue
            for side in (sides[index], sides[index + 1]):
                described = self._describe_float(side)
                if described is not None:
                    verb = "is not" if isinstance(op, ast.IsNot) else "is"
                    yield self.finding(
                        node,
                        f"identity comparison `{verb} {described}`: only the "
                        "interned singleton passes (NumPy-derived floats do "
                        "not); use ==, math.isinf or math.isnan",
                    )
                    break

    def _describe_float(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return repr(node.value)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in ("inf", "nan")
        ):
            return f"math.{node.attr}"
        if isinstance(node, ast.Name):
            value = self.ctx.constants.get(node.id)
            if type(value) is float:
                return node.id
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            return "float(...)"
        return None


# ---------------------------------------------------------------------- #
@register_rule
class UnguardedNumpyImport(Rule):
    """REP102: the no-NumPy tier survives only if numpy imports are contained."""

    code = "REP102"
    name = "unguarded-numpy-import"
    summary = (
        "top-level `import numpy`/`import scipy` outside the backend-module "
        "allowlist and outside a try/except ImportError guard breaks the "
        "dependency-free tier"
    )
    scope = "src"
    node_types = (ast.Import, ast.ImportFrom)

    #: Modules whose entire point is the NumPy/SciPy tier; they are only ever
    #: imported behind registry guards, so their own imports may be bare.
    ALLOWED_MODULES = {
        "repro.kernels.scipy_backend",
        "repro.congest.engine.dense",
    }
    BLOCKED_ROOTS = {"numpy", "scipy"}

    def visit(self, node: ast.AST) -> Iterator[Finding]:
        if self.ctx.in_function or self.ctx.import_guarded:
            return
        if self.ctx.module in self.ALLOWED_MODULES:
            return
        if isinstance(node, ast.Import):
            roots = {alias.name.split(".")[0] for alias in node.names}
        elif node.module is not None and node.level == 0:
            roots = {node.module.split(".")[0]}
        else:
            return
        for root in sorted(roots & self.BLOCKED_ROOTS):
            yield self.finding(
                node,
                f"unguarded top-level import of {root!r}: the module becomes "
                "unimportable on the no-NumPy tier; import lazily inside the "
                "function that needs it, or guard with try/except ImportError",
            )


# ---------------------------------------------------------------------- #
@register_rule
class EnvConfigRead(Rule):
    """REP103: configuration flows through ``repro.configure``, not ad-hoc reads."""

    code = "REP103"
    name = "env-config-read"
    summary = (
        "`REPRO_*` environment read outside repro.runtime and the two "
        "registry modules: accept the knob as an argument or go through "
        "repro.configure"
    )
    scope = "src"
    node_types = (ast.Call, ast.Subscript)

    ALLOWED_MODULES = {
        "repro.runtime",
        "repro.congest.engine.base",
        "repro.kernels.backend",
    }

    def visit(self, node: ast.AST) -> Iterator[Finding]:
        if self.ctx.module in self.ALLOWED_MODULES:
            return
        key_node: Optional[ast.AST] = None
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain in (("os", "environ", "get"), ("os", "getenv")) and node.args:
                key_node = node.args[0]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            chain = _attr_chain(node.value)
            if chain == ("os", "environ"):
                key_node = node.slice
        if key_node is None:
            return
        key = self.ctx.resolve_str(key_node)
        if key is None or not key.startswith("REPRO_"):
            return
        yield self.finding(
            node,
            f"read of {key!r} outside the runtime/registry modules: config "
            "must flow through repro.configure (repro.runtime) or an explicit "
            "argument",
        )


# ---------------------------------------------------------------------- #
@register_rule
class MutatorVersionBump(Rule):
    """REP104: every adjacency mutation must invalidate the CSR/digest caches."""

    code = "REP104"
    name = "mutator-version-bump"
    summary = (
        "WeightedGraph method mutates `_adjacency` without bumping `_version`, "
        "so frozen CSR snapshots and content digests go stale"
    )
    scope = "all"
    node_types = (ast.ClassDef,)

    TARGET_CLASS = "WeightedGraph"
    MUTATING_METHODS = {"pop", "popitem", "clear", "update", "setdefault"}

    def visit(self, node: ast.ClassDef) -> Iterator[Finding]:
        if node.name != self.TARGET_CLASS:
            return
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if self._mutates_adjacency(stmt) and not self._bumps_version(stmt):
                yield self.finding_at(
                    stmt.lineno,
                    stmt.col_offset,
                    f"{node.name}.{stmt.name} mutates `self._adjacency` without "
                    "bumping `self._version`: cached CSR snapshots and content "
                    "digests will serve stale data",
                )

    # ------------------------------------------------------------------ #
    def _roots_at_adjacency(self, node: ast.AST) -> bool:
        """True if ``node`` is ``self._adjacency`` under any subscript chain."""
        while isinstance(node, ast.Subscript):
            node = node.value
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "_adjacency"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _mutates_adjacency(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in self.MUTATING_METHODS and self._roots_at_adjacency(
                    node.func.value
                ):
                    return True
                continue
            else:
                continue
            for target in targets:
                # Only *container* mutations count: rebinding the attribute
                # itself (``self._adjacency = {}`` in __init__) is
                # initialization, not a mutation of shared state.
                if isinstance(target, ast.Subscript) and self._roots_at_adjacency(
                    target
                ):
                    return True
        return False

    def _bumps_version(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, (ast.AugAssign, ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "_version"
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return True
        return False


# ---------------------------------------------------------------------- #
@register_rule
class UnregisteredSubclass(Rule):
    """REP105: defining an engine/backend without registering it is dead code."""

    code = "REP105"
    name = "unregistered-subclass"
    summary = (
        "ExecutionEngine/KernelBackend/QuantumBackend subclass defined but "
        "never passed to register_engine/register_backend in its module"
    )
    scope = "src"
    node_types = (ast.ClassDef, ast.Call, ast.Assign)

    #: Base-name -> required registration function.  Suffix matching keeps
    #: subclass-of-subclass chains (a ``GpuBackend(ScipyBackend)``) covered
    #: without enumerating every concrete class.
    EXACT_BASES = {
        "ExecutionEngine": "register_engine",
        "KernelBackend": "register_backend",
        "QuantumBackend": "register_backend",
    }
    SUFFIX_BASES = (("Engine", "register_engine"), ("Backend", "register_backend"))

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        #: class name -> (register fn, ClassDef node)
        self._candidates: Dict[str, Tuple[str, ast.ClassDef]] = {}
        #: register fn -> names appearing in its call arguments
        self._registered: Dict[str, Set[str]] = {}
        #: variable name -> class name, from ``inst = Cls(...)`` assignments
        self._aliases: Dict[str, str] = {}

    def visit(self, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.ClassDef):
            self._visit_class(node)
        elif isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, ast.Assign):
            self._visit_assign(node)
        return iter(())

    def _visit_class(self, node: ast.ClassDef) -> None:
        # Only module-level classes participate: nested/local classes are
        # helpers by construction.
        if self.ctx.in_function or self.ctx.class_stack:
            return
        for base in node.bases:
            base_name = (
                base.id
                if isinstance(base, ast.Name)
                else base.attr
                if isinstance(base, ast.Attribute)
                else None
            )
            if base_name is None:
                continue
            register_fn = self.EXACT_BASES.get(base_name)
            if register_fn is None:
                for suffix, fn in self.SUFFIX_BASES:
                    if base_name.endswith(suffix):
                        register_fn = fn
                        break
            if register_fn is not None:
                self._candidates[node.name] = (register_fn, node)
                return

    def _visit_call(self, node: ast.Call) -> None:
        fn_name = (
            node.func.id
            if isinstance(node.func, ast.Name)
            else node.func.attr
            if isinstance(node.func, ast.Attribute)
            else None
        )
        if fn_name not in ("register_engine", "register_backend"):
            return
        names = self._registered.setdefault(fn_name, set())
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)

    def _visit_assign(self, node: ast.Assign) -> None:
        if (
            isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._aliases[target.id] = node.value.func.id

    def finish(self) -> Iterator[Finding]:
        for cls_name, (register_fn, node) in sorted(self._candidates.items()):
            referenced = self._registered.get(register_fn, set())
            resolved = referenced | {
                self._aliases[name] for name in referenced if name in self._aliases
            }
            if cls_name not in resolved:
                yield self.finding(
                    node,
                    f"class {cls_name} subclasses a registry base but is never "
                    f"passed to {register_fn}() in this module: the registry "
                    "cannot route to it",
                )


# ---------------------------------------------------------------------- #
@register_rule
class GlobalRandomCall(Rule):
    """REP106: the shared module-global random stream breaks determinism."""

    code = "REP106"
    name = "global-random-call"
    summary = (
        "call into the module-global `random.*` stream: seed an explicit "
        "random.Random (or route through QuantumRng) so runs are replayable"
    )
    scope = "src"
    node_types = (ast.Call,)

    #: Constructors/classes on the module are fine -- the rule targets the
    #: functions that consume the shared global state.
    ALLOWED_ATTRS = {"Random", "SystemRandom"}
    ALLOWED_MODULES = {"repro.quantum.rng"}

    def visit(self, node: ast.Call) -> Iterator[Finding]:
        if self.ctx.module in self.ALLOWED_MODULES:
            return
        if "random" not in self.ctx.imported_roots:
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr not in self.ALLOWED_ATTRS
        ):
            yield self.finding(
                node,
                f"`random.{func.attr}(...)` draws from the shared module-global "
                "stream, so results depend on import order and unrelated "
                "callers; use an explicit seeded random.Random or QuantumRng",
            )
