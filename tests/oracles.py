"""Independent reference implementations the tests check the real code against.

These are deliberately naive (linear scans, full sorts, recomputed ratios) and
were written before the optimized code paths they validate.
"""

from __future__ import annotations

import math

from fedsched.core import ResourceVector


def brute_force_match(
    node_constraints: list[frozenset[int]],
    node_available: list[ResourceVector],
    task_constraints: frozenset[int],
    demand: ResourceVector,
) -> int | None:
    """Lowest ordinal whose machine constraints cover the task's and whose
    availability dominates the demand; None when no node qualifies."""
    for ordinal in range(len(node_constraints)):
        if not node_constraints[ordinal] >= task_constraints:
            continue
        if node_available[ordinal].geq(demand):
            return ordinal
    return None


def sort_percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile by full sort: element ceil(q/100 * n), 1-based."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def share_ratio(consumed, share, metric: str) -> float:
    """Recompute a consumed/share violation ratio from raw numbers."""
    dims = range(len(share)) if metric == "max" else (0,)
    worst = 0.0
    for i in dims:
        used = consumed[i]
        if share[i] <= 0.0:
            ratio = float("inf") if used > 0 else 0.0
        else:
            ratio = used / share[i]
        worst = max(worst, ratio)
    return worst
