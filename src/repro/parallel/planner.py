"""The shard planner: partition a round's methods into balanced shards.

A method's **check cost** is its last *observed* wall time when the
incremental stats have one (``IncrementalStats.method_costs``, an EWMA fed
by every ``check_one`` and every adopted verdict), falling back to a comp-count heuristic — call
sites are where comp types evaluate (rule C-App-Comp), so a body's
``MethodCall`` node count is the best static proxy for its checking cost.
Every session worker holds a replica of the whole app, so any method can
go to any shard: the planner is one longest-processing-time greedy pass
over method keys.

Planning is deterministic: costs tie-break on the caller's key order, and
shards tie-break on their index, so the same inputs always produce the
same shards.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.lang import ast_nodes as ast
from repro.obs.spans import traced
from repro.typecheck.registry import MethodKey

#: fallback per-method base checking cost in seconds
BASE_METHOD_COST = 0.0004
#: heuristic cost of one potential comp-evaluation site (a call node)
COMP_SITE_COST = 0.0002


def comp_site_count(node) -> int:
    """Count ``MethodCall`` nodes reachable from an AST node — each call is
    a potential comp evaluation during checking (operators included, since
    the parser desugars them to calls)."""
    count = 0
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.MethodCall):
            count += 1
        if isinstance(current, ast.Node):
            # AST nodes are slotted dataclasses — walk their declared fields
            stack.extend(getattr(current, field.name)
                         for field in dataclasses.fields(current)
                         if field.name != "compiled")
        elif isinstance(current, list):
            stack.extend(current)
        elif isinstance(current, tuple):
            stack.extend(current)
    return count


def method_cost(key: MethodKey, registry=None, stats=None) -> float:
    """Predicted checking cost (seconds) for one method: the observed
    wall-time EWMA, else the comp-site count heuristic."""
    if stats is not None:
        observed = stats.method_costs.get(str(key))
        if observed is not None:
            return max(observed, 1e-6)
    sites = 0
    if registry is not None:
        node = registry.defined_methods.get(key)
        if node is not None:
            sites = comp_site_count(node)
    return BASE_METHOD_COST + COMP_SITE_COST * sites


@dataclass
class Shard:
    """One worker's assignment, with the planner's cost prediction."""

    index: int
    keys: list[MethodKey] = field(default_factory=list)
    predicted_cost: float = 0.0


@traced("fleet.plan_shards")
def plan_shards(keys: list[MethodKey], workers: int, registry=None,
                stats=None) -> list[Shard]:
    """Partition ``keys`` into at most ``workers`` balanced shards.

    ``registry`` holds the method bodies the comp-count heuristic reads.
    Longest-processing-time greedy: keys in descending cost go to the
    least-loaded shard; each shard then lists its keys in ``keys`` order.
    """
    shards = [Shard(index=i) for i in range(min(max(1, workers), len(keys)))]
    costs = {key: method_cost(key, registry, stats) for key in keys}
    order = {key: index for index, key in enumerate(keys)}
    for key in sorted(keys, key=lambda k: (-costs[k], order[k])):
        target = min(shards, key=lambda s: (s.predicted_cost, s.index))
        target.predicted_cost += costs[key]
        target.keys.append(key)
    for shard in shards:
        shard.keys.sort(key=order.__getitem__)
    return shards
