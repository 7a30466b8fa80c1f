"""Max-min fair-share bandwidth allocation (progressive filling).

The fluid level models every long-lived flow as a rate, not a packet
stream.  Given the set of active flows and the directed link capacities
they traverse, the classic water-filling algorithm yields the max-min
fair allocation: repeatedly find the most constrained link (smallest
equal share among its unfrozen flows), freeze every flow crossing it at
that share, subtract, and continue until all flows are frozen.

:class:`PathClassSolver` is the incremental *path-class* solver the
engine uses.  Flows sharing an identical directed-link signature
collapse into one variable carrying a multiplicity, so a solve runs
over O(distinct paths) variables regardless of flow count; the
bottleneck search is a walk over a sorted seed list instead of a full
per-iteration link scan; and per-link flow counts plus link->class
membership stay alive across solves so arrivals/departures are
O(path length) deltas.

It is **bit-identical** — not merely approximately equal — to
from-scratch per-flow progressive filling, whose executable
specification (``max_min_rates``, with the one-shot class-level
``max_min_class_rates``) lives in ``tests/flowsim_oracles.py``.  The
class-level freeze applies the same clamped-at-zero capacity
subtraction once per member flow (in a tight loop) rather than a fused
``mult * share`` multiply, because repeated float subtraction rounds
differently from a single multiply and the reference subtracts
per-flow.  Within one water-filling iteration every frozen flow
subtracts the *same* share, so the subtraction sequence on any link is
a fixed number of identical operations — order-independent — and the
class-grouped order reproduces the reference's flow-ordered result
exactly.  ``tests/test_flowsim.py`` enforces this on randomized
instances.

Two extensions the hybrid engine needs:

* **Pinned flows** — escalated segments carry a packet-derived rate the
  solver must respect, so pinned demand is subtracted from link
  capacity before the elastic flows share the remainder.
* **A rate floor** — when pinned demand saturates a link completely,
  the elastic flows crossing it would otherwise receive rate 0 and
  never finish; :data:`MIN_RATE_BPS` keeps the fluid system live (and
  is far below any rate that could influence a calibrated result).

Everything is deterministic: bottleneck ties resolve to the smallest
link index, the changed set fills in freeze order, and the result is a
pure function of the inputs.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "MIN_RATE_BPS",
    "PathClassSolver",
]

#: Floor on any allocated rate, so overload cannot stall the event loop.
MIN_RATE_BPS = 1e3

#: A path class's directed-link signature: the link keys in path order.
PathSig = Tuple[int, ...]


class PathClassSolver:
    """Incremental max-min solver over path classes.

    A *path class* is the set of flows sharing one directed-link
    signature; the solver carries one variable per class with an
    integer multiplicity.  Membership mutates through :meth:`add` /
    :meth:`remove` (O(path length) each), pinned per-link demand
    through :meth:`pin` deltas, and :meth:`solve` allocates from the
    live state without rebuilding it.

    Internally every link key is interned to a dense index on first
    sight, so the hot state is flat lists — per-index capacity, pinned
    demand, unfrozen-flow count, member-class set — rather than dicts;
    a solve's scratch state is two list copies, not dict rebuilds.

    The solve consumes a *sorted* seed list — one ``(share, link)``
    entry per live link, kept ascending across solves by every
    add/remove/pin delta — with an index pointer in place of heap pops:
    water-filling visits links in nondecreasing share order, so the
    bottleneck search is a plain walk, saturated links are the walked
    prefix at or below the freeze threshold, and a round's refreshed
    shares re-enter via ``bisect.insort`` at or after the pointer
    (refreshed shares cannot sort before links already frozen).  Stale
    entries — superseded by a later insert — are skipped on walk: an
    entry is current exactly when its share equals the link's live
    share.  This enumerates exactly the saturated set the reference
    implementation finds by scanning every link per iteration.

    Results are bit-identical to per-flow progressive filling over the
    expanded per-flow inputs (see the module docstring for why).
    """

    __slots__ = ("_capacity", "_key2idx", "_idx2key", "_cap", "_pinned",
                 "_info", "_counts", "_members", "_nflows",
                 "_remaining0", "_sorted", "_shares", "_epoch", "changed")

    def __init__(self, capacity_bps: Mapping[int, float]):
        #: Live view of directed-link capacities; the engine grows it
        #: as new links are first traversed, and each key's capacity is
        #: captured when the key is first interned.
        self._capacity = capacity_bps
        self._key2idx: Dict[int, int] = {}
        self._idx2key: List[int] = []
        self._cap: List[float] = []
        self._pinned: List[float] = []
        #: class signature -> ``[member count, interned signature,
        #: freeze-epoch stamp, previous solved rate (None before the
        #: first solve)]``.  One record per class, shared by reference
        #: with every ``_members`` row it appears in, so the solve's
        #: freeze loop reads and writes all per-class state with zero
        #: extra dict lookups: frozen-this-solve is an epoch compare,
        #: and changed-since-last-solve is a compare against the
        #: record's own previous rate.
        self._info: Dict[PathSig, list] = {}
        #: dense index -> unfrozen flow-traversal count (one per
        #: occurrence of the link in a member's signature).
        self._counts: List[int] = []
        #: dense index -> insertion-ordered map of member class
        #: signature -> its shared ``_info`` record.
        self._members: List[Dict[PathSig, list]] = []
        self._nflows = 0
        #: dense index -> capacity minus pinned demand, clamped at 0 —
        #: the water-filling start state, maintained by deltas so a
        #: solve copies it instead of recomputing it.
        self._remaining0: List[float] = []
        #: Ascending (share, idx) seeds, exactly one per *live* link
        #: (count > 0), maintained sorted by every add/remove/pin
        #: delta; a solve starts from a plain C-speed list copy —
        #: no divisions, no sort, no heapify.
        self._sorted: List[Tuple[float, int]] = []
        #: dense index -> that link's live share, or -1.0 when it has
        #: no unfrozen flows.  A seed entry is *current* exactly when
        #: its share equals this value, so stale-entry detection is one
        #: list index instead of a division per visit.
        self._shares: List[float] = []
        #: Monotone solve counter; a class is frozen in the current
        #: solve exactly when its info record carries this stamp.
        self._epoch = 0
        #: Classes whose rate differed from the previous solve, in
        #: freeze order — the engine's write-back set, so unchanged
        #: classes cost nothing after the solve.
        self.changed: Dict[PathSig, float] = {}

    def _intern(self, key: int) -> int:
        cap = self._capacity.get(key)
        if cap is None:
            raise ValueError(f"link {key!r} has no capacity entry")
        if not cap >= 0.0:
            raise ValueError(
                f"link {key!r} capacity must be >= 0 bps, got {cap!r}"
            )
        idx = len(self._idx2key)
        self._key2idx[key] = idx
        self._idx2key.append(key)
        self._cap.append(cap)
        self._pinned.append(0.0)
        self._counts.append(0)
        self._members.append({})
        self._remaining0.append(self._cap[idx])
        self._shares.append(-1.0)
        return idx

    def _reseed(self, idx: int) -> None:
        """Refresh the sorted solve-start seed for ``idx`` after a delta."""
        shares = self._shares
        old = shares[idx]
        if old != -1.0:
            self._sorted.pop(bisect_left(self._sorted, (old, idx)))
        count = self._counts[idx]
        if count > 0:
            share = self._remaining0[idx] / count
            shares[idx] = share
            insort(self._sorted, (share, idx))
        else:
            shares[idx] = -1.0

    # -- membership / demand deltas -------------------------------------

    def add(self, sig: PathSig, count: int = 1) -> None:
        """Add ``count`` flows with directed-link signature ``sig``.

        Raises ``ValueError``, with the solver unchanged, when a link of
        a new class has no capacity entry or a NaN or negative one.
        """
        info = self._info.get(sig)
        counts = self._counts
        if info is None:
            # Intern every link before touching any state, so a link
            # _intern rejects leaves the solver as it was.
            key2idx = self._key2idx
            idxs = []
            for key in sig:
                idx = key2idx.get(key)
                if idx is None:
                    idx = self._intern(key)
                idxs.append(idx)
            # A class created (or re-created after dying) carries no
            # previous rate, so its first solve back always reports it
            # in ``changed``, whatever rate it gets.
            info = [count, tuple(idxs), 0, None]
            self._info[sig] = info
            members = self._members
            for idx in idxs:
                counts[idx] += count
                members[idx][sig] = info
                self._reseed(idx)
        else:
            info[0] += count
            for idx in info[1]:
                counts[idx] += count
                self._reseed(idx)
        self._nflows += count

    def remove(self, sig: PathSig, count: int = 1) -> None:
        """Remove ``count`` flows from the class with signature ``sig``.

        Raises ``ValueError`` when no such class is live or it has fewer
        than ``count`` members.
        """
        info = self._info.get(sig)
        if info is None:
            raise ValueError(f"no live path class with signature {sig!r}")
        have = info[0] - count
        if have < 0:
            raise ValueError(
                f"removing {count} flows from class of {have + count}"
            )
        self._nflows -= count
        counts = self._counts
        idxs = info[1]
        if have:
            info[0] = have
            for idx in idxs:
                counts[idx] -= count
                self._reseed(idx)
        else:
            del self._info[sig]
            members = self._members
            for idx in idxs:
                counts[idx] -= count
                members[idx].pop(sig, None)
                self._reseed(idx)

    def pin(self, key: int, delta_bps: float) -> None:
        """Shift the inelastic (pinned) demand on ``key`` by a delta.

        Escalated flows' packet-derived rates accumulate here through
        arrivals, departures, and group-rate changes, so a solve reads
        pinned demand straight off the dense state instead of taking a
        freshly summed mapping per call.
        """
        idx = self._key2idx.get(key)
        if idx is None:
            idx = self._intern(key)
        self._pinned[idx] += delta_bps
        left = self._cap[idx] - self._pinned[idx]
        self._remaining0[idx] = left if left > 0.0 else 0.0
        self._reseed(idx)

    def pinned_demand(self, key: int) -> float:
        """Current pinned demand on link ``key`` (0.0 if never seen)."""
        idx = self._key2idx.get(key)
        return 0.0 if idx is None else self._pinned[idx]

    @property
    def num_classes(self) -> int:
        """Distinct path classes currently registered."""
        return len(self._info)

    @property
    def num_flows(self) -> int:
        """Total member flows across all classes."""
        return self._nflows

    # -- the solve -------------------------------------------------------

    def resolve(self) -> Dict[PathSig, float]:
        """Re-solve from the live state; return only the *changed* set.

        The engine's per-event entry point: runs the same water-filling
        as :meth:`solve` but skips materialising the full rates dict —
        each class's rate lands in its info record, and the return
        value (also left on :attr:`changed`) maps exactly the classes
        whose rate differs from the previous solve, in freeze order.
        """
        self._run(None)
        return self.changed

    def solve(self, pinned_bps: Optional[Mapping[int, float]] = None
              ) -> Dict[PathSig, float]:
        """Max-min fair rate per path class (every member gets it).

        ``pinned_bps`` overrides the accumulated :meth:`pin` state for
        this call: per-link inelastic demand subtracted from capacity
        before sharing, as in per-flow progressive filling.  With the
        default ``None`` the solver's own pinned state applies.
        """
        self._run(pinned_bps)
        return {sig: info[3] for sig, info in self._info.items()}

    def _run(self, pinned_bps: Optional[Mapping[int, float]]) -> None:
        info_map = self._info
        changed: Dict[PathSig, float] = {}
        self.changed = changed
        self._epoch = epoch = self._epoch + 1
        if not info_map:
            return
        if pinned_bps is None:
            # Fast path: the sorted seed list and zero-round remaining
            # state are maintained by every add/remove/pin delta, so
            # starting a solve is four C-speed list copies — no
            # divisions, no sort.
            counts = self._counts[:]
            remaining = self._remaining0[:]
            lst = self._sorted[:]
            cur = self._shares[:]
        else:
            counts = self._counts[:]
            cap = self._cap
            n = len(counts)
            pinned = [pinned_bps.get(key, 0.0) for key in self._idx2key]
            remaining = [0.0] * n
            cur = [-1.0] * n
            lst = []
            entry = lst.append
            for idx in range(n):
                count = counts[idx]
                left = cap[idx] - pinned[idx]
                if left < 0.0:
                    left = 0.0
                remaining[idx] = left
                if count > 0:
                    share = left / count
                    cur[idx] = share
                    entry((share, idx))
            lst.sort()
        members = self._members
        min_rate = MIN_RATE_BPS
        pending = len(info_map)
        p = 0
        end = len(lst)
        while pending and p < end:
            # Bottleneck: the smallest *current* share.  An entry is
            # current exactly when its share equals ``cur[idx]`` (every
            # mutation refreshes ``cur``, and a link with no unfrozen
            # flows holds the -1.0 sentinel no entry can match); stale
            # copies superseded by a fresher insort are skipped by the
            # pointer walk.  Fresh entries always land at or after the
            # walk pointer (shares only grow across rounds up to ulp
            # rounding, and ``insort(..., lo=p)`` pins the floor), so
            # advancing ``p`` never skips a live link.
            share = -1.0
            while p < end:
                s, idx = lst[p]
                p += 1
                if s == cur[idx]:
                    share = s
                    break
            if share < 0.0:
                break
            if share < min_rate:
                share = min_rate
            threshold = share * (1.0 + 1e-12)
            # Freeze every class crossing a saturated link at the
            # share.  The freeze sweep only *tallies* frozen
            # occurrences per touched link; counts, the clamped
            # capacity drains (one subtraction per member flow, to
            # match the reference's per-flow rounding bit-for-bit),
            # ``cur``, and the fresh seed entries are all applied once
            # per unique link after the whole round.  Saturation is
            # judged against round-start shares throughout — exactly
            # the semantics of the reference's scan-then-subtract
            # round, and within a round every subtraction uses the
            # same share, so regrouping them per link is
            # order-independent.
            touched: Dict[int, int] = {}
            while True:
                for sig, info in members[idx].items():
                    if info[2] == epoch:
                        continue
                    info[2] = epoch
                    if info[3] != share:
                        info[3] = share
                        changed[sig] = share
                    pending -= 1
                    m = info[0]
                    for jdx in info[1]:
                        if jdx in touched:
                            touched[jdx] += m
                        else:
                            touched[jdx] = m
                # Next saturated link at (or numerically below) the
                # threshold; the list is sorted and every entry before
                # the pointer is consumed, so walking to the threshold
                # enumerates exactly the saturated set the reference
                # scans out.
                idx = -1
                while p < end and lst[p][0] <= threshold:
                    s, idx = lst[p]
                    p += 1
                    if s == cur[idx]:
                        break
                    idx = -1
                if idx < 0:
                    break
            for idx, drains in touched.items():
                counts[idx] = count = counts[idx] - drains
                left = remaining[idx]
                while drains:
                    left -= share
                    if left < 0.0:
                        left = 0.0
                        break
                    drains -= 1
                remaining[idx] = left
                if count > 0:
                    s = left / count
                    cur[idx] = s
                    insort(lst, (s, idx), p)
                    end += 1
                else:
                    cur[idx] = -1.0
        if pending:
            # Classes whose every link ran out of unfrozen counts (or
            # that traverse no links at all) get the liveness floor —
            # the reference's `share is None` branch.
            for sig, info in info_map.items():
                if info[2] != epoch:
                    info[2] = epoch
                    if info[3] != min_rate:
                        info[3] = min_rate
                        changed[sig] = min_rate
