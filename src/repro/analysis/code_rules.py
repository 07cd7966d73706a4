"""The ``code`` rule family: the toolkit's invariants, enforced on its
own source (``sst analyze``).

PRs 2-5 established guarantees that only dynamic tests enforced:
bit-identical output across serial and process batch runs,
fork-safe workers, lock-guarded shared caches, atomic artifact writes,
namespaced telemetry.  Each rule here pins one of those invariants
statically, so a regression is caught at analysis time — before any
test has to happen to exercise the offending path.

Findings reuse the :class:`~repro.analysis.engine.Finding` shape of the
other families: ``ontology`` carries the file's display path,
``subject`` the enclosing ``Class.method`` (or offending symbol), and
``line``/``column`` the AST position, so text and JSON reports, rule
filtering and severity gating all work unchanged.

Suppression is per-line via ``# sst: disable=<code>`` pragmas (see
:mod:`repro.analysis.astwalk`) or per-finding via the committed
baseline (:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.astwalk import (
    ModuleSource,
    ancestors,
    collect_python_files,
    dotted_name,
    enclosing_function,
    iter_calls,
    iter_functions,
    load_module,
    mutated_outer_names,
    parent,
    qualname_of,
)
from repro.analysis.engine import (
    AnalysisConfig,
    Finding,
    RuleRegistry,
    run_rules,
    sort_findings,
)

__all__ = [
    "CODE_RULES",
    "CodeContext",
    "METRIC_NAMESPACES",
    "analyze_paths",
]

#: Registry of all code-family rules.
CODE_RULES = RuleRegistry()

#: Registered metric namespace roots.  ``telemetry.count("cache.l2.hits")``
#: is legal; ``telemetry.count("l2hits")`` is not — un-rooted names
#: fragment the prometheus exposition the service endpoint scrapes.
METRIC_NAMESPACES = (
    "align", "analysis", "cache", "cluster", "diskcache", "facade",
    "faults", "graphindex", "index", "kernel", "parallel", "query",
    "resilience", "server", "service", "soqa", "store", "telemetry",
)

#: Wall-clock reads that break run-to-run reproducibility when they
#: feed measures, matrices or cache keys.  Monotonic/perf counters are
#: fine — they only ever measure durations.
_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime", "time.asctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: ``random.<fn>`` module-level calls draw from the *global*, unseeded
#: RNG; ``random.Random(seed)`` constructs an owned, seeded stream.
_SEEDED_RANDOM_FACTORIES = frozenset({"random.Random"})

#: Order-sensitive consumers: iterating a bare ``set`` there leaks the
#: hash-seed-dependent iteration order into output or cache keys.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate",
                                    "reversed", "iter"})

#: Executor methods whose function argument runs on a pool worker.
_SUBMIT_METHODS = frozenset({"submit", "map"})

#: Call targets that are not safe to hand a forked process worker via
#: ``initargs`` (inherited handles belong to the parent).
_FORK_UNSAFE_FACTORIES = frozenset({
    "sqlite3.connect", "open", "io.open",
    "threading.Lock", "threading.RLock", "threading.Condition",
})

#: Telemetry hooks taking a metric name as their first argument.
_METRIC_HOOKS = ("telemetry.count", "telemetry.gauge",
                 "telemetry.observe")


@dataclass
class CodeContext:
    """What code rules see: every parsed module of the analyzed paths."""

    modules: list[ModuleSource] = field(default_factory=list)

    def calls(self) -> Iterator[tuple[ModuleSource, ast.Call, str]]:
        """Every call with its resolved dotted target (``""`` when the
        callee is not a plain name chain)."""
        for module in self.modules:
            for call in iter_calls(module.tree):
                yield module, call, module.resolve(call.func) or ""

    def functions(self) -> Iterator[tuple[ModuleSource, ast.FunctionDef]]:
        for module in self.modules:
            for function in iter_functions(module.tree):
                yield module, function

    def classes(self) -> Iterator[tuple[ModuleSource, ast.ClassDef]]:
        for module in self.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield module, node


def _matches(resolved: str, targets: Iterable[str]) -> bool:
    """True when ``resolved`` names any target fully qualified or as a
    dotted suffix (``repro.core.telemetry.span`` matches the target
    ``telemetry.span``; a bare local ``span`` does not)."""
    for target in targets:
        if resolved == target or resolved.endswith("." + target):
            return True
    return False


def _code_finding(rule, module: ModuleSource, node: ast.AST, message: str,
                  subject: str = "", hint: str = "",
                  severity: str | None = None) -> Finding:
    """A finding positioned at ``node`` inside ``module``."""
    return rule.finding(
        message, subject=subject or qualname_of(node),
        ontology=module.display, line=getattr(node, "lineno", 0),
        column=getattr(node, "col_offset", -1) + 1, hint=hint,
        severity=severity)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


@CODE_RULES.rule("wallclock-call", "warning", "code")
def _wallclock_call(rule, context: CodeContext):
    """Determinism: no wall-clock reads — a ``time.time()`` that feeds a
    measure, matrix or cache key breaks bit-identical reruns."""
    for module, call, resolved in context.calls():
        if resolved in _WALLCLOCK_CALLS:
            yield _code_finding(
                rule, module, call,
                f"wall-clock read {resolved}() in similarity code; "
                "results must be bit-identical across reruns",
                hint="inject a clock (see resilience.Deadline) or use "
                     "time.monotonic/perf_counter for durations")


@CODE_RULES.rule("unseeded-random", "warning", "code")
def _unseeded_random(rule, context: CodeContext):
    """Determinism: no draws from the global unseeded RNG — randomness
    must come from an injected, seeded ``random.Random`` stream."""
    for module, call, resolved in context.calls():
        if resolved.startswith("random.") \
                and resolved not in _SEEDED_RANDOM_FACTORIES:
            yield _code_finding(
                rule, module, call,
                f"{resolved}() draws from the global unseeded RNG; "
                "reruns will diverge",
                hint="construct random.Random(seed) and pass it down "
                     "(see repro.ontologies.generator)")


def _is_set_expression(module: ModuleSource, node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) \
        and module.resolve(node.func) in ("set", "frozenset")


@CODE_RULES.rule("unsorted-iteration", "warning", "code")
def _unsorted_iteration(rule, context: CodeContext):
    """Determinism: no iteration over a bare ``set`` where order can
    reach output or cache keys — wrap it in ``sorted(...)``."""
    for module in context.modules:
        for node in ast.walk(module.tree):
            if not _is_set_expression(module, node):
                continue
            above = parent(node)
            ordered_sink = None
            if isinstance(above, ast.For) and above.iter is node:
                ordered_sink = "a for loop"
            elif isinstance(above, ast.comprehension) \
                    and above.iter is node:
                ordered_sink = "a comprehension"
            elif isinstance(above, ast.Call) and node in above.args:
                target = module.resolve(above.func) or ""
                if target in _ORDER_SENSITIVE_CALLS:
                    ordered_sink = f"{target}()"
                elif isinstance(above.func, ast.Attribute) \
                        and above.func.attr == "join":
                    ordered_sink = "str.join()"
            if ordered_sink is not None:
                yield _code_finding(
                    rule, module, node,
                    f"set iterated by {ordered_sink}; set order depends "
                    "on the per-process hash seed",
                    hint="wrap the set in sorted(...) before iterating")


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


def _worker_functions(module: ModuleSource
                      ) -> Iterator[tuple[ast.FunctionDef, ast.Call]]:
    """Module-local functions handed to ``pool.submit``/``pool.map``."""
    definitions = {function.name: function
                   for function in iter_functions(module.tree)}
    seen: set[str] = set()
    for call in iter_calls(module.tree):
        if not isinstance(call.func, ast.Attribute) \
                or call.func.attr not in _SUBMIT_METHODS or not call.args:
            continue
        target = call.args[0]
        if isinstance(target, ast.Name) and target.id in definitions \
                and target.id not in seen:
            seen.add(target.id)
            yield definitions[target.id], call


@CODE_RULES.rule("worker-shared-mutation", "error", "code")
def _worker_shared_mutation(rule, context: CodeContext):
    """Concurrency: a function submitted to a pool worker must not
    mutate module-level or closure-captured state — worker results may
    only travel back through return values (the merge-delta protocol)."""
    for module in context.modules:
        for function, _submission in _worker_functions(module):
            for name, node, how in mutated_outer_names(function):
                yield _code_finding(
                    rule, module, node,
                    f"worker function {function.name!r} {how} "
                    f"{name!r} outside its own scope",
                    subject=function.name,
                    hint="return the data and merge it in the parent "
                         "(see CachedRunner.merge)")


def _lock_attribute(class_node: ast.ClassDef,
                    module: ModuleSource) -> str | None:
    """The ``self.<name>`` lock attribute a class initializes, if any."""
    for node in ast.walk(class_node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self" \
                and isinstance(node.value, ast.Call) \
                and _matches(module.resolve(node.value.func) or "",
                             ("threading.Lock", "threading.RLock")):
            return target.attr
    return None


def _under_lock(node: ast.AST, lock_name: str) -> bool:
    """True when ``node`` sits inside ``with self.<lock_name>``."""
    for ancestor in ancestors(node):
        if not isinstance(ancestor, ast.With):
            continue
        for item in ancestor.items:
            expression = item.context_expr
            if isinstance(expression, ast.Attribute) \
                    and expression.attr == lock_name \
                    and isinstance(expression.value, ast.Name) \
                    and expression.value.id == "self":
                return True
    return False


def _self_attribute_mutations(method: ast.FunctionDef
                              ) -> Iterator[tuple[str, ast.AST]]:
    """``(attribute, node)`` for every mutation of ``self.<attribute>``."""
    from repro.analysis.astwalk import MUTATING_METHODS

    def self_attr(node: ast.AST) -> str | None:
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return node.attr
        return None

    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                attribute = self_attr(target)
                if attribute is not None:
                    yield attribute, node
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATING_METHODS:
            attribute = self_attr(node.func.value)
            if attribute is not None:
                yield attribute, node


@CODE_RULES.rule("unlocked-shared-state", "error", "code")
def _unlocked_shared_state(rule, context: CodeContext):
    """Concurrency: attributes a class guards with its lock anywhere
    must be guarded *everywhere* — one unguarded store reintroduces the
    race (``CachedRunner``-style shared state discipline)."""
    for module, class_node in context.classes():
        lock_name = _lock_attribute(class_node, module)
        if lock_name is None:
            continue
        methods = [node for node in class_node.body
                   if isinstance(node, ast.FunctionDef)]
        guarded: set[str] = set()
        for method in methods:
            for attribute, node in _self_attribute_mutations(method):
                if _under_lock(node, lock_name):
                    guarded.add(attribute)
        guarded.discard(lock_name)
        if not guarded:
            continue
        for method in methods:
            if method.name == "__init__" or (
                    method.name.startswith("__")
                    and method.name.endswith("__")):
                continue  # construction / pickling own the object
            for attribute, node in _self_attribute_mutations(method):
                if attribute in guarded \
                        and not _under_lock(node, lock_name):
                    yield _code_finding(
                        rule, module, node,
                        f"self.{attribute} is mutated without "
                        f"self.{lock_name}, but other methods of "
                        f"{class_node.name} guard it",
                        subject=f"{class_node.name}.{method.name}",
                        hint=f"wrap the mutation in "
                             f"`with self.{lock_name}:`")


def _locally_fork_unsafe(call: ast.Call, module: ModuleSource) -> set[str]:
    """Names bound to fork-unsafe resources in the enclosing function."""
    function = enclosing_function(call)
    unsafe: set[str] = set()
    if function is None:
        return unsafe
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            resolved = module.resolve(node.value.func) or ""
            if _matches(resolved, _FORK_UNSAFE_FACTORIES):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        unsafe.add(target.id)
    return unsafe


@CODE_RULES.rule("fork-unsafe-initargs", "error", "code")
def _fork_unsafe_initargs(rule, context: CodeContext):
    """Concurrency: no open sqlite connections, file handles or locks in
    process-pool ``initargs`` — inherited handles belong to the parent
    and corrupt or deadlock in the child."""
    for module, call, resolved in context.calls():
        if not _matches(resolved, ("ProcessPoolExecutor",)):
            continue
        initargs = next((keyword.value for keyword in call.keywords
                         if keyword.arg == "initargs"), None)
        if not isinstance(initargs, (ast.Tuple, ast.List)):
            continue
        local_unsafe = _locally_fork_unsafe(call, module)
        for element in initargs.elts:
            description = None
            if isinstance(element, ast.Call):
                target = module.resolve(element.func) or ""
                if _matches(target, _FORK_UNSAFE_FACTORIES):
                    description = f"{target}(...)"
            elif isinstance(element, ast.Name) \
                    and element.id in local_unsafe:
                description = element.id
            if description is not None:
                yield _code_finding(
                    rule, module, element,
                    f"fork-unsafe resource {description} passed as a "
                    "process-pool initarg",
                    hint="open the resource inside the worker "
                         "initializer instead (per-process handle)")


#: Calls that block the calling thread outright; inside an ``async
#: def`` they freeze the whole event loop (the ``sst serve`` accept
#: loop serves no one while one coroutine sleeps).
_ASYNC_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output",
    "urllib.request.urlopen", "socket.create_connection",
    "sqlite3.connect",
})


def _own_flow_calls(function: ast.AST) -> Iterator[ast.Call]:
    """Calls in the function's own control flow — code inside a nested
    ``def``/``lambda`` runs when *that* function is called (possibly on
    an executor thread), so it is not this function's verdict."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@CODE_RULES.rule("async-blocking-call", "error", "code")
def _async_blocking_call(rule, context: CodeContext):
    """Concurrency: no blocking calls inside ``async def`` — a
    ``time.sleep`` (or subprocess / blocking socket call) in a
    coroutine wedges the entire event loop, so the server stops
    accepting connections for its duration."""
    for module in context.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for call in _own_flow_calls(node):
                resolved = module.resolve(call.func) or ""
                if not _matches(resolved, _ASYNC_BLOCKING_CALLS):
                    continue
                yield _code_finding(
                    rule, module, call,
                    f"blocking call {resolved}(...) inside async "
                    f"function {node.name!r} stalls the event loop",
                    subject=node.name,
                    hint="await asyncio.sleep(...) for delays, or move "
                         "blocking work to loop.run_in_executor(...)")


# ---------------------------------------------------------------------------
# Resilience discipline
# ---------------------------------------------------------------------------


def _open_mode(call: ast.Call) -> str | None:
    """The constant mode string of an ``open(...)`` call, if present."""
    mode: ast.AST | None = call.args[1] if len(call.args) > 1 else None
    if mode is None:
        mode = next((keyword.value for keyword in call.keywords
                     if keyword.arg == "mode"), None)
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


@CODE_RULES.rule("nonatomic-write", "error", "code")
def _nonatomic_write(rule, context: CodeContext):
    """Resilience: artifact writes go through ``atomic_write_text`` —
    a bare ``open(..., "w")`` interrupted mid-write leaves a truncated
    file the next run trips over."""
    for module, call, resolved in context.calls():
        if resolved in ("open", "io.open"):
            mode = _open_mode(call)
            if mode is not None and any(flag in mode for flag in "wax"):
                yield _code_finding(
                    rule, module, call,
                    f"direct open(..., {mode!r}) write; an interrupted "
                    "run leaves a truncated artifact",
                    hint="use repro.core.resilience.atomic_write_text "
                         "(temp file + os.replace)")
        elif isinstance(call.func, ast.Attribute) \
                and call.func.attr in ("write_text", "write_bytes"):
            yield _code_finding(
                rule, module, call,
                f"direct Path.{call.func.attr}() write; an interrupted "
                "run leaves a truncated artifact",
                hint="use repro.core.resilience.atomic_write_text "
                     "(temp file + os.replace)")


@CODE_RULES.rule("unknown-fault-site", "error", "code")
def _unknown_fault_site(rule, context: CodeContext):
    """Resilience: fault-injection site strings must name a registered
    ``KNOWN_FAULT_SITES`` entry — a typo'd site never fires and the
    chaos suite silently stops testing that path."""
    from repro.core.resilience import KNOWN_FAULT_SITES

    for module, call, resolved in context.calls():
        if not _matches(resolved, ("resilience.maybe_fire",
                                   "resilience.maybe_raise")):
            continue
        if not call.args:
            continue
        site = call.args[0]
        if isinstance(site, ast.Constant) and isinstance(site.value, str) \
                and site.value not in KNOWN_FAULT_SITES:
            yield _code_finding(
                rule, module, call,
                f"fault site {site.value!r} is not registered; known "
                f"sites: {', '.join(KNOWN_FAULT_SITES)}",
                subject=site.value,
                hint="add the site to resilience.KNOWN_FAULT_SITES or "
                     "fix the spelling")


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """A ``raise`` in the handler's *own* control flow — a raise inside
    a nested function/class merely defined in the handler does not
    re-raise, so it must not excuse a swallowed exception."""
    stack: list[ast.AST] = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _broad_exception_names(handler: ast.ExceptHandler,
                           module: ModuleSource) -> list[str]:
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return [name for kind in kinds
            for name in [module.resolve(kind) or dotted_name(kind) or ""]
            if name in ("Exception", "BaseException")]


@CODE_RULES.rule("swallowed-exception", "warning", "code")
def _swallowed_exception(rule, context: CodeContext):
    """Resilience: no bare ``except:`` / silent ``except Exception:`` —
    they swallow the typed ``ResilienceError`` hierarchy the supervisor
    and circuit breaker dispatch on."""
    for module in context.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield _code_finding(
                    rule, module, node,
                    "bare except: catches everything, including "
                    "KeyboardInterrupt and the ResilienceError hierarchy",
                    severity="error",
                    hint="catch the narrowest exception type that can "
                         "actually occur here")
            elif _broad_exception_names(node, module) \
                    and not _handler_reraises(node):
                caught = ", ".join(_broad_exception_names(node, module))
                yield _code_finding(
                    rule, module, node,
                    f"except {caught} without re-raise swallows the "
                    "typed ResilienceError hierarchy",
                    hint="catch specific types, or re-raise after "
                         "recording the failure")


# ---------------------------------------------------------------------------
# Lifecycle discipline
# ---------------------------------------------------------------------------


def _constant_false_keyword(call: ast.Call, name: str) -> bool:
    """True when ``call`` passes the literal ``name=False``."""
    for keyword in call.keywords:
        if keyword.arg == name \
                and isinstance(keyword.value, ast.Constant) \
                and keyword.value.value is False:
            return True
    return False


@CODE_RULES.rule("abandoning-executor-shutdown", "warning", "code")
def _abandoning_executor_shutdown(rule, context: CodeContext):
    """Lifecycle: ``Executor.shutdown(wait=False)`` abandons in-flight
    work silently — outside a drain-aware teardown (which has already
    waited for, or deliberately counted, the survivors) it drops
    requests the caller believes are still being answered.

    Only literal ``wait=False`` is flagged; a computed ``wait=`` is a
    decision, not an abandonment.  Functions whose name carries
    ``drain`` are the documented escape hatch: by then the drain loop
    owns the accounting (``server.drain.*``).
    """
    for module, call, _resolved in context.calls():
        if not isinstance(call.func, ast.Attribute) \
                or call.func.attr != "shutdown":
            continue
        if not _constant_false_keyword(call, "wait"):
            continue
        function = enclosing_function(call)
        if function is not None and "drain" in function.name:
            continue
        yield _code_finding(
            rule, module, call,
            "shutdown(wait=False) abandons in-flight work without "
            "draining or accounting for it",
            hint="drain first (wait for in-flight work, count what "
                 "was abandoned — see SimilarityServer."
                 "_drain_aware_executor_shutdown), or pragma a "
                 "deliberate abandonment")


def _under_main_thread_guard(node: ast.AST,
                             module: ModuleSource) -> bool:
    """True when ``node`` sits under ``if ... threading.main_thread()``."""
    for ancestor in ancestors(node):
        if not isinstance(ancestor, ast.If):
            continue
        for part in ast.walk(ancestor.test):
            if isinstance(part, ast.Call) and _matches(
                    module.resolve(part.func) or "",
                    ("threading.main_thread",)):
                return True
    return False


@CODE_RULES.rule("signal-off-main-thread", "warning", "code")
def _signal_off_main_thread(rule, context: CodeContext):
    """Lifecycle: ``signal.signal(...)`` raises ``ValueError`` anywhere
    but the main thread — library code cannot know its thread, so a
    bare registration is a latent crash in every embedded or
    background-thread deployment.

    Either install through the event loop (``loop.add_signal_handler``
    runs the callback on the loop, any thread) or guard the fallback
    with an explicit main-thread check, as
    :func:`repro.core.lifecycle.install_signal_drain` does.
    """
    for module, call, resolved in context.calls():
        if not _matches(resolved, ("signal.signal",)):
            continue
        if _under_main_thread_guard(call, module):
            continue
        yield _code_finding(
            rule, module, call,
            "signal.signal(...) without a main-thread guard raises "
            "ValueError in embedded/background-thread servers",
            hint="prefer loop.add_signal_handler, or guard with "
                 "`if threading.current_thread() is "
                 "threading.main_thread():` (see lifecycle."
                 "install_signal_drain)")


# ---------------------------------------------------------------------------
# Observability hygiene
# ---------------------------------------------------------------------------


def _metric_name_parts(argument: ast.AST) -> tuple[str, bool] | None:
    """``(literal_text, complete)`` of a metric-name argument.

    ``complete`` is False for f-strings, where only the leading literal
    segment can be checked statically.
    """
    if isinstance(argument, ast.Constant) \
            and isinstance(argument.value, str):
        return argument.value, True
    if isinstance(argument, ast.JoinedStr):
        head = argument.values[0] if argument.values else None
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value, False
        return "", False
    return None


@CODE_RULES.rule("metric-name", "warning", "code")
def _metric_name(rule, context: CodeContext):
    """Observability: metric names must be dotted and rooted in a
    registered namespace, or the prometheus exposition fragments."""
    for module, call, resolved in context.calls():
        if not _matches(resolved, _METRIC_HOOKS) or not call.args:
            continue
        parts = _metric_name_parts(call.args[0])
        if parts is None:
            continue
        literal, complete = parts
        if complete and "." not in literal:
            yield _code_finding(
                rule, module, call,
                f"metric name {literal!r} is not dotted; use "
                "namespace.subsystem.metric",
                subject=literal,
                hint=f"root it in one of: {', '.join(METRIC_NAMESPACES)}")
            continue
        root = literal.split(".", 1)[0]
        # For f-strings only a complete leading root (text up to a dot)
        # is checkable; a bare prefix before the first placeholder is
        # not a verdict either way.
        if (complete or "." in literal) \
                and root and root not in METRIC_NAMESPACES:
            yield _code_finding(
                rule, module, call,
                f"metric name root {root!r} is not a registered "
                "namespace",
                subject=literal,
                hint=f"use one of: {', '.join(METRIC_NAMESPACES)}")


@CODE_RULES.rule("span-discipline", "error", "code")
def _span_discipline(rule, context: CodeContext):
    """Observability: spans are opened with ``with telemetry.span(...)``
    — a span entered by hand leaks open on any exception path and
    corrupts the tracer's thread-local stack."""
    for module, call, resolved in context.calls():
        if not _matches(resolved, ("telemetry.span",)):
            continue
        above = parent(call)
        if isinstance(above, ast.withitem) \
                and above.context_expr is call:
            continue
        yield _code_finding(
            rule, module, call,
            "telemetry.span(...) used outside a with statement; the "
            "span will not close on exceptions",
            hint="write `with telemetry.span(...):` around the work")


# ---------------------------------------------------------------------------
# Performance
# ---------------------------------------------------------------------------

#: The batch kernel module; importing it marks a module as hot-path
#: code expected to score pairs in batches.
_KERNEL_MODULE = "repro.core.kernel"

#: Loop constructs (statement loops and comprehensions) whose bodies
#: multiply a per-pair call into N or N-squared facade re-entries.
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While, ast.ListComp,
               ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _imports_kernel(module: ModuleSource) -> bool:
    for origin in module.imports.aliases.values():
        if origin == _KERNEL_MODULE \
                or origin.startswith(_KERNEL_MODULE + "."):
            return True
    return False


@CODE_RULES.rule("prefer-batch-kernel", "info", "code")
def _prefer_batch_kernel(rule, context: CodeContext):
    """Performance: a per-pair ``runner.run(a, b)`` inside a loop, in a
    module that already imports the batch kernel, re-enters the facade
    N (or N-squared) times where one kernel batch would do.

    Only modules importing :mod:`repro.core.kernel` are held to this —
    they are the hot paths that chose batch scoring; everything else
    (tests, the runners themselves) stays free to loop.  Deliberate
    per-pair loops (the fallback for measures without a batch form, the
    reference loop the kernel is gated against) carry a pragma.
    """
    for module in context.modules:
        if not _imports_kernel(module):
            continue
        for call in iter_calls(module.tree):
            function = call.func
            if not isinstance(function, ast.Attribute) \
                    or function.attr != "run":
                continue
            if len(call.args) != 2 or call.keywords:
                continue
            if not any(isinstance(above, _LOOP_NODES)
                       for above in ancestors(call)):
                continue
            yield _code_finding(
                rule, module, call,
                "per-pair .run(first, second) inside a loop in a "
                "kernel-importing module; this re-enters the facade "
                "once per pair",
                hint="score the whole batch with "
                     "repro.core.kernel.try_batch (or pragma a "
                     "deliberate fallback loop)")


#: Storage-layer classes held to indexed lookup: suffixes of class
#: names that own a concept collection with a by-name index.
_STORAGE_CLASS_SUFFIXES = ("Store", "Wrapper", "Ontology")

#: Comprehension nodes whose generators can scan a concept collection.
_COMPREHENSION_NODES = (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                        ast.DictComp)


def _concept_scan(node: ast.AST) -> str | None:
    """The spelled form of a full-corpus scan iterable — an argument-less
    ``<x>.concepts()`` call or ``<x>._concepts.values()`` — else None."""
    if not isinstance(node, ast.Call) or node.args or node.keywords:
        return None
    function = node.func
    if not isinstance(function, ast.Attribute):
        return None
    if function.attr == "concepts":
        return ".concepts()"
    if function.attr == "values" \
            and isinstance(function.value, ast.Attribute) \
            and function.value.attr == "_concepts":
        return "._concepts.values()"
    return None


def _compares_name_of(nodes: Iterable[ast.AST],
                      loop_names: set[str]) -> bool:
    """True when any node tests ``<target>.name ==`` (either side)."""
    for top in nodes:
        for node in ast.walk(top):
            if not isinstance(node, ast.Compare) \
                    or not any(isinstance(op, ast.Eq) for op in node.ops):
                continue
            for operand in (node.left, *node.comparators):
                if isinstance(operand, ast.Attribute) \
                        and operand.attr == "name" \
                        and isinstance(operand.value, ast.Name) \
                        and operand.value.id in loop_names:
                    return True
    return False


def _loop_target_names(target: ast.AST) -> set[str]:
    return {name.id for name in ast.walk(target)
            if isinstance(name, ast.Name)}


@CODE_RULES.rule("full-materialization", "info", "code")
def _full_materialization(rule, context: CodeContext):
    """Performance: a storage class scanning every concept to find one
    by name.

    ``for concept in self.concepts(): if concept.name == wanted``
    materializes the whole corpus per lookup — at WordNet scale that is
    a hundred thousand rows pulled through the wrapper to answer one
    probe.  Store/wrapper/ontology classes keep a by-name index
    (``concept(name)`` / the sqlite name column) precisely so a lookup
    never depends on corpus size.
    """
    hint = ("look the concept up through the indexed accessor "
            "(concept(name) / an indexed sqlite query) instead of "
            "scanning the collection")
    for module, class_node in context.classes():
        if not class_node.name.endswith(_STORAGE_CLASS_SUFFIXES):
            continue
        for node in ast.walk(class_node):
            if isinstance(node, ast.For):
                scanned = _concept_scan(node.iter)
                if scanned is not None and _compares_name_of(
                        node.body, _loop_target_names(node.target)):
                    yield _code_finding(
                        rule, module, node,
                        f"loop over {scanned} filters by concept name in "
                        f"{class_node.name}; this materializes every "
                        "concept to find one",
                        hint=hint)
            elif isinstance(node, _COMPREHENSION_NODES):
                for generator in node.generators:
                    scanned = _concept_scan(generator.iter)
                    if scanned is not None and _compares_name_of(
                            [node], _loop_target_names(generator.target)):
                        yield _code_finding(
                            rule, module, node,
                            f"comprehension over {scanned} filters by "
                            f"concept name in {class_node.name}; this "
                            "materializes every concept to find one",
                            hint=hint)


# ---------------------------------------------------------------------------
# General hygiene
# ---------------------------------------------------------------------------


@CODE_RULES.rule("environ-write", "warning", "code")
def _environ_write(rule, context: CodeContext):
    """Shared state: library code does not write ``os.environ`` — a
    write outlives the call that made it, so every later in-process
    caller (a test, an embedding application) inherits it.

    Pass the value explicitly, or set it for one scope and restore it
    in a ``finally``, with a pragma on the write.
    """
    hint = ("pass the value explicitly, or scope the write and restore "
            "it in a finally")
    for module in context.modules:
        for node in ast.walk(module.tree):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and _matches(
                        module.resolve(target.value) or "",
                        ("os.environ",)):
                    yield _code_finding(
                        rule, module, target,
                        "assignment to os.environ[...] leaks into every "
                        "later in-process caller", hint=hint)
    for module, call, resolved in context.calls():
        if _matches(resolved, ("os.environ.update", "os.environ.setdefault",
                               "os.putenv")):
            yield _code_finding(
                rule, module, call,
                f"{resolved}(...) leaks into every later in-process "
                "caller", hint=hint)


@CODE_RULES.rule("mutable-default-argument", "warning", "code")
def _mutable_default_argument(rule, context: CodeContext):
    """Shared state: a mutable default argument is one hidden object
    shared by every call — and by every pool worker thread."""
    for module, function in context.functions():
        defaults = list(function.args.defaults) \
            + [default for default in function.args.kw_defaults
               if default is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp)) \
                or (isinstance(default, ast.Call)
                    and (module.resolve(default.func) or "")
                    in ("list", "dict", "set", "bytearray"))
            if mutable:
                yield _code_finding(
                    rule, module, default,
                    f"mutable default argument in {function.name}(); "
                    "one shared instance crosses all calls and threads",
                    subject=function.name,
                    hint="default to None and create the object inside")


@CODE_RULES.rule("module-syntax-error", "error", "code")
def _module_syntax_error(rule, context: CodeContext):
    """A file under analysis does not parse.

    Registered for discoverability (``--list-rules``) and rule
    filtering; the actual findings are emitted by :func:`analyze_paths`
    while loading, before any AST exists.
    """
    return ()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def analyze_paths(paths: Iterable[str], config: AnalysisConfig | None = None,
                  registry: RuleRegistry | None = None) -> list[Finding]:
    """Run the code rules over Python files and directories.

    Directories are walked recursively for ``*.py``.  Unparseable files
    become ``module-syntax-error`` findings instead of aborting the
    run.  Findings on lines carrying a matching ``# sst:
    disable=<code>`` pragma are dropped here, so every renderer and the
    baseline diff see only live findings.
    """
    registry = registry if registry is not None else CODE_RULES
    config = config if config is not None else AnalysisConfig()
    context = CodeContext()
    error_findings: list[Finding] = []
    syntax_rule = registry.get("module-syntax-error") \
        if "module-syntax-error" in registry else None
    for file_path, display in collect_python_files(paths):
        try:
            context.modules.append(load_module(file_path, display))
        except (SyntaxError, UnicodeDecodeError, OSError) as error:
            if syntax_rule is None or not config.selects(syntax_rule):
                continue
            line = getattr(error, "lineno", 0) or 0
            finding = Finding(
                severity="error", code="module-syntax-error",
                message=f"cannot analyze: {error}", subject="",
                ontology=display, line=line,
                column=getattr(error, "offset", 0) or 0,
                hint="fix the file before analysis can continue")
            if config.reports(finding):
                error_findings.append(finding)
    findings = run_rules(registry, "code", context, config)
    by_display = {module.display: module for module in context.modules}
    findings = [
        finding for finding in findings
        if not (finding.ontology in by_display
                and by_display[finding.ontology].suppressed(
                    finding.line, finding.code))]
    return sort_findings(findings + error_findings)
