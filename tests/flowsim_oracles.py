"""Reference max-min allocators the fluid solver is tested against.

:func:`max_min_rates` is from-scratch per-flow progressive filling: it
rebuilds the per-link state on every call and scans every unfrozen flow
per water-filling iteration, O(flows x path length) per iteration.  It
is the executable specification that
:class:`repro.flowsim.solver.PathClassSolver` must match bit for bit.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.flowsim.solver import MIN_RATE_BPS, PathClassSolver, PathSig

__all__ = ["max_min_class_rates", "max_min_rates"]


def max_min_rates(
    flow_links: Mapping[int, Sequence[int]],
    capacity_bps: Mapping[int, float],
    pinned_bps: Optional[Mapping[int, float]] = None,
) -> Dict[int, float]:
    """Max-min fair rates for elastic flows over directed links.

    Args:
        flow_links: flow id -> the directed-link keys it traverses.
            Flows listed here are *elastic* (rate decided by fairness).
        capacity_bps: directed-link key -> capacity in bps.
        pinned_bps: directed-link key -> total demand already committed
            to pinned (escalated) flows on that link, subtracted from
            capacity before sharing.  ``None`` means no pinned demand
            (a ``None`` sentinel, not a shared mutable ``{}`` default).

    Returns:
        flow id -> allocated rate (bps), every flow >= MIN_RATE_BPS.
    """
    if pinned_bps is None:
        pinned_bps = {}
    # remaining capacity and unfrozen-flow count per link
    remaining: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for flow_id, links in flow_links.items():
        for key in links:
            counts[key] = counts.get(key, 0) + 1
    for key, count in counts.items():
        cap = capacity_bps[key] - pinned_bps.get(key, 0.0)
        remaining[key] = cap if cap > 0.0 else 0.0

    rates: Dict[int, float] = {}
    unfrozen = dict(flow_links)
    while unfrozen:
        # The bottleneck link: smallest equal share among its flows.
        share = None
        for key, count in counts.items():
            if count <= 0:
                continue
            candidate = remaining[key] / count
            if share is None or candidate < share:
                share = candidate
        if share is None:
            # Remaining flows traverse only links with no unfrozen
            # counts — cannot happen by construction, but stay safe.
            for flow_id in unfrozen:
                rates[flow_id] = MIN_RATE_BPS
            break
        share = max(share, MIN_RATE_BPS)
        # Freeze every unfrozen flow crossing a link at (or numerically
        # below) the bottleneck share.
        threshold = share * (1.0 + 1e-12)
        frozen = [
            flow_id
            for flow_id, links in unfrozen.items()
            if any(
                counts[key] > 0 and remaining[key] / counts[key] <= threshold
                for key in links
            )
        ]
        if not frozen:
            # Numerical corner: nothing met the threshold (degenerate
            # capacities); freeze everything at the floor to terminate.
            frozen = list(unfrozen)
            share = MIN_RATE_BPS
        for flow_id in frozen:
            rates[flow_id] = share
            for key in unfrozen[flow_id]:
                counts[key] -= 1
                remaining[key] -= share
                if remaining[key] < 0.0:
                    remaining[key] = 0.0
            del unfrozen[flow_id]
    return rates



def max_min_class_rates(
    class_flows: Mapping[PathSig, int],
    capacity_bps: Mapping[int, float],
    pinned_bps: Optional[Mapping[int, float]] = None,
) -> Dict[PathSig, float]:
    """One-shot convenience: class signature+multiplicity -> fair rate.

    Builds a :class:`~repro.flowsim.solver.PathClassSolver`, registers
    every class, and runs a single solve, for comparing the class-level
    result against :func:`max_min_rates`.
    """
    solver = PathClassSolver(capacity_bps)
    for sig, count in class_flows.items():
        solver.add(sig, count)
    return solver.solve(pinned_bps)
