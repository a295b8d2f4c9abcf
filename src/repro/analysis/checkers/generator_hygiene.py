"""generator-hygiene: executor operators stream, never materialize.

The executor's promise is bounded memory: each node handler in
``_NODE_HANDLERS`` (and any ``_exec_*`` helper) yields rows on demand.
A handler that quietly returns ``list(...)``, a list comprehension, or
``sorted(...)`` materializes an unbounded intermediate and breaks
early-exit LIMIT semantics.

A handler passes when it is itself a generator, or every ``return``
value is provably lazy: a generator expression, a bare name, a call to
a lazy builtin (``islice``/``iter``/``map``/...), or a call to a
package function that is itself lazy (recursively, to a small depth —
this is how ``_limit_stream``-style wrappers are accepted).  Operators
that *must* materialize (sort, hash build sides) do so behind an
explicit ``# minicheck: ignore[generator-hygiene]``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.callgraph import CallGraph
from repro.analysis.checkers.base import Checker
from repro.analysis.findings import Finding, Severity
from repro.analysis.summaries import FunctionInfo, PackageSummary, call_name

LAZY_BUILTINS = {
    "islice", "iter", "map", "filter", "zip", "enumerate", "reversed",
    "chain", "starmap", "takewhile", "dropwhile",
}
EAGER_CALLS = {"list", "sorted", "tuple", "set", "dict"}


#: the dispatch-registry assignment whose dict values are node handlers —
#: the executor's single registry, holding row and batch handlers alike
_REGISTRY_NAME = "_NODE_HANDLERS"
#: handler-naming conventions picked up even off-registry
_HANDLER_PREFIXES = ("_exec_", "_batch_")


def _handler_functions(package: PackageSummary) -> Iterator[FunctionInfo]:
    """Streaming operators: registry values, ``_exec_*`` and ``_batch_*``.

    Batch handlers stream *batches* instead of rows, but the hygiene
    contract is identical — a handler that materializes every batch
    before yielding the first breaks bounded memory just the same.
    """
    seen: Set[int] = set()
    for summary in package.summaries.values():
        handler_names: Set[str] = set()
        for node in ast.walk(summary.module.tree):
            if not isinstance(node, ast.Assign):
                continue
            is_registry = any(
                isinstance(t, ast.Name) and t.id == _REGISTRY_NAME
                for t in node.targets
            )
            if is_registry and isinstance(node.value, ast.Dict):
                for value in node.value.values:
                    if isinstance(value, ast.Name):
                        handler_names.add(value.id)
                    elif isinstance(value, ast.Attribute):
                        handler_names.add(value.attr)
        for fn in summary.functions:
            if fn.name in handler_names or fn.name.startswith(_HANDLER_PREFIXES):
                if id(fn) not in seen:
                    seen.add(id(fn))
                    yield fn


class GeneratorHygieneChecker(Checker):
    rule = "generator-hygiene"
    severity = Severity.ERROR
    description = ("executor node handlers must yield or return lazy "
                   "iterators, never materialized lists")

    def check(self, package: PackageSummary,
              graph: CallGraph) -> Iterator[Finding]:
        for fn in _handler_functions(package):
            offender = self._eager_site(fn, graph, set())
            if offender is not None:
                yield self.finding(
                    fn, offender,
                    "executor operator materializes its rows instead of "
                    "streaming them (yield, return a generator, or "
                    "suppress for a deliberate blocking operator)")

    def _eager_site(self, fn: FunctionInfo, graph: CallGraph,
                    visiting: Set[int]) -> Optional[ast.AST]:
        """First node proving *fn* is eager, or None when it is lazy."""
        if id(fn) in visiting or len(visiting) > 3:
            return None  # recursion / depth cap: assume lazy
        if fn.is_generator:
            return None
        visiting = visiting | {id(fn)}
        returns = [n for n in fn.own_nodes() if isinstance(n, ast.Return)]
        if not any(r.value is not None for r in returns):
            # no value-returning path: neither yields nor streams
            return fn.node
        for ret in returns:
            if ret.value is None:
                continue
            bad = self._eager_value(ret.value, fn, graph, visiting)
            if bad is not None:
                return bad
        return None

    def _eager_value(self, value: ast.expr, fn: FunctionInfo,
                     graph: CallGraph,
                     visiting: Set[int]) -> Optional[ast.AST]:
        if isinstance(value, (ast.GeneratorExp, ast.Name, ast.Lambda)):
            return None
        if isinstance(value, (ast.ListComp, ast.SetComp, ast.DictComp,
                              ast.List, ast.Set, ast.Dict, ast.Tuple)):
            return value
        if isinstance(value, ast.IfExp):
            return (self._eager_value(value.body, fn, graph, visiting)
                    or self._eager_value(value.orelse, fn, graph, visiting))
        if isinstance(value, ast.Call):
            name = call_name(value)
            if name in EAGER_CALLS:
                return value
            if name in LAZY_BUILTINS:
                return None
            candidates, resolved = graph.resolve_call(fn, value)
            if not resolved:
                return None  # dynamic/external: assume lazy
            for target in candidates:
                bad = self._eager_site(target, graph, visiting)
                if bad is not None:
                    return value  # report at the call site in *fn*
            return None
        # attribute loads, subscripts, etc.: assume lazy handles
        return None
