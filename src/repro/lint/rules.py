"""The shipped lint rules, REP001–REP008.

Every rule here guards an invariant that has actually been broken (or
nearly broken) in this repo's history:

* REP001 — wall-clock values leaking into digested fields would make
  ``ResultSet.digest()`` machine-dependent; ``seconds``/``timings`` are
  the annotated exceptions excluded from the digest.
* REP002 — the PR 7 ``_canonical_repr`` collision and the PR 5
  window-cursor bug were both silent determinism breaks; unsorted
  set/dict iteration on digest- or scheduling-feeding paths is the same
  class of bug.
* REP003 — an unseeded RNG anywhere in a scenario or workload destroys
  replayability of every cell that touches it.
* REP004 — a forked engine worker loop once shipped a broad
  ``except Exception`` that could swallow pool control exceptions; the
  service's ``WorkerPool`` still forks, so fork worker targets must also
  not capture fork-unsafe module state.
* REP005 — a ``@register_scenario`` class without ``spec_params()``
  cannot round-trip through ``ExperimentSpec`` JSON.
* REP006 — E16 pins null-tracer overhead at <= 3%; an unguarded tracer
  event call in a round loop pays dict/f-string costs even when
  tracing is off.
* REP007 — ``round_stretch`` was added to ``RunResult`` and had to show
  up in ``to_row()`` to be digested; a field added to the dataclass but
  silently missing from the row is invisible to ``ResultSet.digest()``
  and to every committed ``BENCH_*.json`` — drift the type checker
  cannot see.  Fields that are deliberately row-free must be listed in
  ``_ROW_EXCLUDED`` next to the dataclass.
* REP008 — an adaptive scenario (one overriding ``observe_round``) that
  forgets ``is_adaptive = True`` silently never receives traffic
  feedback (backends only pay the per-round callback when the flag is
  set), and one whose constructor state cannot round-trip through
  ``spec_params()`` breaks spec replay of every adaptive cell.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.core import (
    Finding,
    ModuleContext,
    dotted_name,
    register_rule,
    walk_scope,
)

__all__ = [
    "rep001_digest_purity",
    "rep002_deterministic_iteration",
    "rep003_seeded_randomness",
    "rep004_fork_worker_safety",
    "rep005_registry_hygiene",
    "rep006_tracer_hot_path",
    "rep007_digest_field_drift",
    "rep008_adaptive_scenario_contract",
]


def _call_args(node: ast.Call) -> Iterator[ast.expr]:
    yield from node.args
    for keyword in node.keywords:
        yield keyword.value


# ---------------------------------------------------------------------------
# REP001 — digest purity
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)

_HASH_CONSTRUCTORS = frozenset(
    {"sha256", "sha512", "sha1", "md5", "blake2b", "blake2s"}
)

# RunResult fields that legitimately carry wall-clock data; both are
# stripped by ResultSet.digest() before hashing.
_DIGEST_EXEMPT_KWARGS = frozenset({"seconds", "timings"})


def _contains_wall_clock(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Call) and dotted_name(sub.func) in _WALL_CLOCK_CALLS
        for sub in ast.walk(node)
    )


def _is_tainted(node: ast.AST, tainted: frozenset[str] | set[str]) -> bool:
    if _contains_wall_clock(node):
        return True
    return any(
        isinstance(sub, ast.Name) and sub.id in tainted for sub in ast.walk(node)
    )


def _wall_clock_taint(scope: ast.AST) -> set[str]:
    """Names in ``scope`` that (transitively) hold wall-clock values."""

    tainted: set[str] = set()
    # Chains like a = time(); b = a - start converge in a couple of
    # passes; cap the fixpoint to keep pathological modules cheap.
    for _ in range(4):
        changed = False
        for node in walk_scope(scope):
            targets: list[ast.AST] = []
            value: ast.AST | None = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if node.value is None:
                    continue
                targets, value = [node.target], node.value
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "add", "extend", "insert")
                and isinstance(node.func.value, ast.Name)
            ):
                # seconds.append(perf_counter() - start) taints `seconds`.
                if any(_is_tainted(arg, tainted) for arg in node.args):
                    if node.func.value.id not in tainted:
                        tainted.add(node.func.value.id)
                        changed = True
                continue
            else:
                continue
            if value is None or not _is_tainted(value, tainted):
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id not in tainted:
                        tainted.add(sub.id)
                        changed = True
        if not changed:
            break
    return tainted


def _is_hash_call(name: str | None) -> bool:
    if name is None:
        return False
    return name in _HASH_CONSTRUCTORS or (
        name.startswith("hashlib.") and name.split(".")[-1] in _HASH_CONSTRUCTORS
    )


@register_rule(
    "REP001",
    name="digest-purity",
    severity="error",
    description=(
        "wall-clock values must not flow into content hashes or digested "
        "RunResult fields (seconds/timings are the annotated exceptions)"
    ),
)
def rep001_digest_purity(ctx: ModuleContext) -> Iterable[Finding]:
    for scope in ctx.scopes():
        tainted = _wall_clock_taint(scope)
        for node in walk_scope(scope):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if _is_hash_call(name):
                for arg in _call_args(node):
                    if _is_tainted(arg, tainted):
                        yield ctx.finding(
                            "REP001",
                            arg,
                            "wall-clock-derived value flows into a content "
                            "hash; digests must be identical across machines "
                            "and runs",
                        )
            elif name is not None and name.split(".")[-1] == "RunResult":
                for keyword in node.keywords:
                    if keyword.arg is None or keyword.arg in _DIGEST_EXEMPT_KWARGS:
                        continue
                    if _is_tainted(keyword.value, tainted):
                        yield ctx.finding(
                            "REP001",
                            keyword.value,
                            f"wall-clock-derived value assigned to digested "
                            f"RunResult field {keyword.arg!r}; only "
                            f"'seconds'/'timings' are excluded from "
                            f"ResultSet.digest()",
                        )


# ---------------------------------------------------------------------------
# REP002 — deterministic iteration
# ---------------------------------------------------------------------------

# Consumers whose result does not depend on element order.
_ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "sum", "min", "max", "any", "all", "len", "set", "frozenset", "Counter"}
)

_SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

_ORDER_CARRYING_WRAPPERS = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_set_expr(node: ast.AST, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_RETURNING_METHODS
            and _is_set_expr(node.func.value, set_names)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _set_typed_names(scope: ast.AST) -> set[str]:
    names: set[str] = set()
    for _ in range(2):
        for node in walk_scope(scope):
            targets: list[ast.AST] = []
            value: ast.AST | None = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if value is not None and _is_set_expr(value, names):
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _order_insensitive_consumer(ctx: ModuleContext, node: ast.AST) -> bool:
    """Whether ``node``'s nearest enclosing call ignores element order."""

    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.Call):
            name = dotted_name(ancestor.func)
            if name is not None and name.split(".")[-1] in _ORDER_INSENSITIVE_CALLS:
                return True
            return False
        if isinstance(ancestor, (ast.stmt, ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
    return False


def _sorted_or_canonical_ancestor(ctx: ModuleContext, node: ast.AST) -> bool:
    """Whether ``node`` sits inside sorted(...) or json.dumps(sort_keys=True)."""

    for ancestor in ctx.ancestors(node):
        if not isinstance(ancestor, ast.Call):
            continue
        name = dotted_name(ancestor.func)
        if name is None:
            continue
        if name.split(".")[-1] == "sorted":
            return True
        if name.endswith("json.dumps") or name == "dumps":
            for keyword in ancestor.keywords:
                if (
                    keyword.arg == "sort_keys"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False


@register_rule(
    "REP002",
    name="deterministic-iteration",
    severity="error",
    description=(
        "unsorted set/dict iteration in modules feeding digests or message "
        "scheduling; wrap in sorted() or use an order-insensitive consumer"
    ),
    include=(
        "repro/engine/",
        "repro/experiments/",
        "repro/congest/",
        "repro/service/",
    ),
)
def rep002_deterministic_iteration(ctx: ModuleContext) -> Iterable[Finding]:
    for scope in ctx.scopes():
        set_names = _set_typed_names(scope)
        for node in walk_scope(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(
                node.iter, set_names
            ):
                yield ctx.finding(
                    "REP002",
                    node.iter,
                    "direct iteration over a set; order is hash-dependent — "
                    "iterate sorted(...) on any path feeding digests or "
                    "message scheduling",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expr(generator.iter, set_names) and not (
                        _order_insensitive_consumer(ctx, node)
                    ):
                        yield ctx.finding(
                            "REP002",
                            generator.iter,
                            "comprehension over a set feeds an "
                            "order-sensitive consumer; wrap the set in "
                            "sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                wrapper = None if name is None else name.split(".")[-1]
                is_join = (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "join"
                )
                if (wrapper in _ORDER_CARRYING_WRAPPERS or is_join) and any(
                    _is_set_expr(arg, set_names) for arg in node.args
                ):
                    yield ctx.finding(
                        "REP002",
                        node,
                        "order-carrying conversion of a set "
                        "(list/tuple/enumerate/join); use sorted(...) instead",
                    )

        # Inside digest-computing helpers, any raw dict-view iteration is
        # order-carrying by construction: flag .items()/.keys()/.values()
        # not wrapped in sorted() or json.dumps(sort_keys=True).
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lowered = scope.name.lower()
            if "digest" in lowered or "canonical" in lowered:
                for node in walk_scope(scope):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("items", "keys", "values")
                        and not node.args
                        and not _sorted_or_canonical_ancestor(ctx, node)
                    ):
                        yield ctx.finding(
                            "REP002",
                            node,
                            f"raw dict .{node.func.attr}() iteration inside a "
                            "digest/canonicalisation helper; wrap in "
                            "sorted(...) so the digest is key-order-free",
                        )


# ---------------------------------------------------------------------------
# REP003 — seeded randomness
# ---------------------------------------------------------------------------

_SEEDED_FACTORIES = frozenset(
    {
        "random.Random",
        "default_rng",
        "np.random.default_rng",
        "numpy.random.default_rng",
        "np.random.RandomState",
        "numpy.random.RandomState",
        "np.random.SeedSequence",
        "numpy.random.SeedSequence",
    }
)

_RANDOM_MODULE_PREFIXES = ("random.", "np.random.", "numpy.random.")


@register_rule(
    "REP003",
    name="seeded-randomness",
    severity="error",
    description=(
        "randomness must come from an explicitly seeded Random(seed) / "
        "default_rng(seed); module-level RNG draws are unreplayable"
    ),
)
def rep003_seeded_randomness(ctx: ModuleContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        if name in _SEEDED_FACTORIES:
            if not node.args and not node.keywords:
                yield ctx.finding(
                    "REP003",
                    node,
                    f"{name}() constructed without an explicit seed; every "
                    "RNG must derive from the cell seed",
                )
        elif name.split(".")[-1] == "SystemRandom":
            yield ctx.finding(
                "REP003",
                node,
                "SystemRandom draws OS entropy and can never replay; use "
                "random.Random(seed)",
            )
        elif name.endswith(".seed") and name.startswith(_RANDOM_MODULE_PREFIXES):
            yield ctx.finding(
                "REP003",
                node,
                "seeding the global RNG is shared mutable state across "
                "threads/cells; construct a local Random(seed) instead",
            )
        elif name.startswith(_RANDOM_MODULE_PREFIXES):
            yield ctx.finding(
                "REP003",
                node,
                f"module-level RNG draw {name}(); derive randomness from an "
                "explicitly seeded Random(seed)/default_rng(seed)",
            )


# ---------------------------------------------------------------------------
# REP004 — fork/worker safety
# ---------------------------------------------------------------------------

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})
_CONTROL_EXCEPTIONS = frozenset({"KeyboardInterrupt", "SystemExit", "GeneratorExit"})

_FORK_UNSAFE_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Event",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "open",
        "shared_memory.SharedMemory",
        "multiprocessing.shared_memory.SharedMemory",
    }
)


def _exception_names(handler: ast.ExceptHandler) -> frozenset[str]:
    node = handler.type
    if node is None:
        return frozenset()
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    names = set()
    for element in elements:
        name = dotted_name(element)
        if name is not None:
            names.add(name.split(".")[-1])
    return frozenset(names)


def _body_reraises(handler: ast.ExceptHandler) -> bool:
    for statement in handler.body:
        for node in ast.walk(statement):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                break
            if isinstance(node, ast.Raise):
                return True
    return False


@register_rule(
    "REP004",
    name="fork-worker-safety",
    severity="error",
    description=(
        "broad except handlers must re-raise control-flow exceptions (or "
        "carry a # pragma justification); fork worker targets must not "
        "capture fork-unsafe module state"
    ),
)
def rep004_fork_worker_safety(ctx: ModuleContext) -> Iterable[Finding]:
    # -- broad exception handlers --------------------------------------
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Try):
            continue
        control_reraised = False
        for handler in node.handlers:
            names = _exception_names(handler)
            if names & _CONTROL_EXCEPTIONS and _body_reraises(handler):
                control_reraised = True
                continue
            broad = handler.type is None or bool(names & _BROAD_EXCEPTIONS)
            if not broad:
                continue
            if _body_reraises(handler):
                continue
            if control_reraised:
                # A preceding `except (KeyboardInterrupt, SystemExit):
                # raise` sibling already protects control flow.
                continue
            if ctx.line_has_pragma(handler.lineno):
                continue
            label = "bare except" if handler.type is None else (
                f"except {'/'.join(sorted(names & _BROAD_EXCEPTIONS)) or '...'}"
            )
            yield ctx.finding(
                "REP004",
                handler,
                f"{label} can swallow KeyboardInterrupt/SystemExit or pool "
                "control exceptions; re-raise them first (`except "
                "(KeyboardInterrupt, SystemExit): raise`) or justify with "
                "a # pragma comment",
            )

    # -- fork worker targets capturing fork-unsafe module state --------
    module_assigns: dict[str, ast.expr] = {}
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and node.value is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module_assigns[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                module_assigns[node.target.id] = node.value

    worker_targets: set[str] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None or name.split(".")[-1] != "Process":
            continue
        for keyword in node.keywords:
            if keyword.arg == "target" and isinstance(keyword.value, ast.Name):
                worker_targets.add(keyword.value.id)

    if worker_targets:
        unsafe_globals = {
            assigned: value
            for assigned, value in module_assigns.items()
            if isinstance(value, ast.Call)
            and dotted_name(value.func) in _FORK_UNSAFE_FACTORIES
        }
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in worker_targets
            ):
                for sub in walk_scope(node):
                    if (
                        isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)
                        and sub.id in unsafe_globals
                    ):
                        factory = dotted_name(unsafe_globals[sub.id].func)
                        yield ctx.finding(
                            "REP004",
                            sub,
                            f"fork worker target {node.name!r} references "
                            f"module-level {sub.id!r} (a {factory}); locks, "
                            "open handles and shm objects must be created "
                            "inside the child or passed explicitly",
                        )


# ---------------------------------------------------------------------------
# REP005 — registry hygiene
# ---------------------------------------------------------------------------


def _decorator_names(node: ast.ClassDef) -> Iterator[str]:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name is not None:
            yield name.split(".")[-1]


@register_rule(
    "REP005",
    name="registry-hygiene",
    severity="error",
    description=(
        "@register_scenario classes with constructor parameters must "
        "implement spec_params()"
    ),
)
def rep005_registry_hygiene(ctx: ModuleContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if "register_scenario" not in set(_decorator_names(node)):
            continue
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        init = next(
            (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ),
            None,
        )
        if init is not None:
            params = init.args.args[1:] + init.args.kwonlyargs
            if (params or init.args.vararg or init.args.kwarg) and (
                "spec_params" not in methods
            ):
                yield ctx.finding(
                    "REP005",
                    node,
                    f"scenario {node.name!r} takes constructor parameters "
                    "but does not override spec_params(); it cannot "
                    "round-trip through ExperimentSpec JSON",
                )


# ---------------------------------------------------------------------------
# REP006 — tracer hot-path guard
# ---------------------------------------------------------------------------

_TRACER_EVENT_METHODS = frozenset(
    {
        "round_begin",
        "round_end",
        "messages_scheduled",
        "edges_blocked",
        "vertex_crashed",
        "payload_corrupted",
        "replica_reseated",
        "messages_delivered",
        "arrays_delivered",
        "scheduler_batch",
        "event",
        "cell_begin",
        "cell_end",
        "span_add",
    }
)


def _is_enabled_expr(node: ast.AST, guard_names: frozenset[str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
        if isinstance(sub, ast.Name) and sub.id in guard_names:
            return True
    return False


def _enabled_guard_names(scope: ast.AST) -> frozenset[str]:
    """Names assigned from ``tracer.enabled`` (e.g. ``traced``)."""

    names = set()
    for node in walk_scope(scope):
        if isinstance(node, ast.Assign) and _is_enabled_expr(
            node.value, frozenset()
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return frozenset(names)


def _guarded_by_enabled(
    ctx: ModuleContext,
    node: ast.AST,
    scope: ast.AST,
    guard_names: frozenset[str],
) -> bool:
    child: ast.AST = node
    for ancestor in ctx.ancestors(node):
        if ancestor is scope or isinstance(
            ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return False
        if (
            isinstance(ancestor, ast.If)
            and child in ancestor.body
            and _is_enabled_expr(ancestor.test, guard_names)
        ):
            return True
        child = ancestor
    return False


def _inside_loop(ctx: ModuleContext, node: ast.AST, scope: ast.AST) -> bool:
    for ancestor in ctx.ancestors(node):
        if ancestor is scope or isinstance(
            ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return False
        if isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While)):
            return True
    return False


@register_rule(
    "REP006",
    name="tracer-hot-path",
    severity="warning",
    description=(
        "tracer event calls inside loops must be gated on tracer.enabled "
        "so the null tracer stays zero-overhead"
    ),
    exclude=("repro/obs/", "repro/lint/"),
)
def rep006_tracer_hot_path(ctx: ModuleContext) -> Iterable[Finding]:
    for scope in ctx.scopes():
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        guard_names = _enabled_guard_names(scope)
        for node in walk_scope(scope):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in _TRACER_EVENT_METHODS:
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None or "tracer" not in receiver.lower():
                continue
            if not _inside_loop(ctx, node, scope):
                continue
            if _guarded_by_enabled(ctx, node, scope, guard_names):
                continue
            yield ctx.finding(
                "REP006",
                node,
                f"tracer.{node.func.attr}() inside a loop without an "
                "`if tracer.enabled` guard; hot loops must pay one attribute "
                "check, not an event call, when untraced",
            )


# ---------------------------------------------------------------------------
# REP007 — digest-field drift
# ---------------------------------------------------------------------------


def _string_set_literal(node: ast.AST) -> frozenset[str] | None:
    """Constant strings of a ``{...}`` / ``frozenset({...})`` literal."""
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("frozenset", "set") and len(node.args) == 1:
            return _string_set_literal(node.args[0])
        return None
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        values = set()
        for element in node.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            values.add(element.value)
        return frozenset(values)
    return None


def _dict_literal_keys(scope: ast.AST) -> frozenset[str]:
    keys = set()
    for node in walk_scope(scope):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
    return frozenset(keys)


def _method(node: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    return next(
        (
            item
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == name
        ),
        None,
    )


@register_rule(
    "REP007",
    name="digest-field-drift",
    severity="error",
    description=(
        "every RunResult dataclass field must reach the digest via the "
        "to_row() dict or be listed in _ROW_EXCLUDED; silent omissions "
        "drift out of ResultSet.digest() and BENCH_*.json"
    ),
)
def rep007_digest_field_drift(ctx: ModuleContext) -> Iterable[Finding]:
    run_result = next(
        (
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef) and node.name == "RunResult"
        ),
        None,
    )
    if run_result is None:
        return

    fields = [
        item.target.id
        for item in run_result.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and not item.target.id.startswith("_")
    ]

    to_row = _method(run_result, "to_row")
    row_keys = _dict_literal_keys(to_row) if to_row is not None else frozenset()
    if to_row is None:
        yield ctx.finding(
            "REP007",
            run_result,
            "RunResult has no to_row() method; fields cannot reach "
            "ResultSet.digest()",
        )
        return

    excluded: frozenset[str] = frozenset()
    for node in ctx.tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "_ROW_EXCLUDED"
                for target in node.targets
            )
        ):
            literal = _string_set_literal(node.value)
            if literal is not None:
                excluded = literal

    for field_name in fields:
        if field_name not in row_keys and field_name not in excluded:
            yield ctx.finding(
                "REP007",
                run_result,
                f"RunResult field {field_name!r} is neither a to_row() key "
                "(digested) nor listed in _ROW_EXCLUDED (explicitly row-free); "
                "it would silently drift out of ResultSet.digest()",
            )
    for name in sorted(excluded):
        if name in row_keys:
            yield ctx.finding(
                "REP007",
                run_result,
                f"_ROW_EXCLUDED lists {name!r} but to_row() emits that key; "
                "a field is digested or excluded, never both",
            )
        elif name not in fields:
            yield ctx.finding(
                "REP007",
                run_result,
                f"_ROW_EXCLUDED lists {name!r} which is not a RunResult "
                "field; remove the stale exclusion",
            )

    result_set = next(
        (
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef) and node.name == "ResultSet"
        ),
        None,
    )
    if result_set is not None:
        digest = _method(result_set, "digest")
        if digest is not None:
            for node in walk_scope(digest):
                if not isinstance(node, ast.Delete):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                        and target.slice.value not in row_keys
                    ):
                        yield ctx.finding(
                            "REP007",
                            node,
                            f"ResultSet.digest() deletes row key "
                            f"{target.slice.value!r} which to_row() never "
                            "emits; stale exclusion (KeyError at runtime)",
                        )


# ---------------------------------------------------------------------------
# REP008 — adaptive scenario contract
# ---------------------------------------------------------------------------


def _is_noop_method(node: ast.FunctionDef) -> bool:
    """Docstring-and-pass-only bodies (the base-class default hook)."""
    for statement in node.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring or bare `...`
        return False
    return True


def _declares_is_adaptive(node: ast.ClassDef) -> bool:
    """``is_adaptive = True`` at class level, or any ``self.is_adaptive``
    assignment (composition wrappers compute the flag from their parts)."""
    for item in node.body:
        targets: list[ast.AST] = []
        value: ast.AST | None = None
        if isinstance(item, ast.Assign):
            targets, value = list(item.targets), item.value
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            targets, value = [item.target], item.value
        if any(
            isinstance(target, ast.Name) and target.id == "is_adaptive"
            for target in targets
        ):
            if isinstance(value, ast.Constant) and value.value is True:
                return True
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(item):
            if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                list(sub.targets) if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "is_adaptive"
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return True
    return False


def _observed_state_attrs(node: ast.FunctionDef) -> frozenset[str]:
    """``self.X`` attribute names assigned inside ``observe_round``."""
    attrs: set[str] = set()
    for sub in ast.walk(node):
        targets: list[ast.AST] = []
        if isinstance(sub, (ast.Assign,)):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            targets = [sub.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return frozenset(attrs)


@register_rule(
    "REP008",
    name="adaptive-scenario-contract",
    severity="error",
    description=(
        "scenarios overriding observe_round() must declare is_adaptive = "
        "True (or the feedback never fires) and keep spec_params() "
        "constructor-only so adaptive cells replay from JSON specs"
    ),
)
def rep008_adaptive_scenario_contract(ctx: ModuleContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        observe = _method(node, "observe_round")
        if observe is None or _is_noop_method(observe):
            continue
        if not _declares_is_adaptive(node):
            yield ctx.finding(
                "REP008",
                node,
                f"scenario {node.name!r} overrides observe_round() without "
                "declaring is_adaptive = True; backends only feed traffic "
                "statistics to scenarios with the flag set, so the override "
                "silently never fires",
            )
        init = _method(node, "__init__")
        has_params = init is not None and bool(
            init.args.args[1:]
            or init.args.kwonlyargs
            or init.args.vararg
            or init.args.kwarg
        )
        spec = _method(node, "spec_params")
        if has_params and spec is None:
            yield ctx.finding(
                "REP008",
                node,
                f"adaptive scenario {node.name!r} takes constructor "
                "parameters but does not override spec_params(); adaptive "
                "cells cannot replay from JSON specs without it",
            )
        if spec is None:
            continue
        observed = _observed_state_attrs(observe)
        if not observed:
            continue
        for sub in walk_scope(spec):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Load)
                and sub.attr in observed
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                yield ctx.finding(
                    "REP008",
                    sub,
                    f"spec_params() of adaptive scenario {node.name!r} reads "
                    f"'self.{sub.attr}', which observe_round() mutates; "
                    "specs must serialise constructor state only, or replay "
                    "diverges from the original run",
                )
