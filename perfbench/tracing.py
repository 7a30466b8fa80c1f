"""Timing wrappers around the program's public calls, and the per-layer
split they give.

:class:`Tracer` swaps wrappers in for the public functions each layer
exposes (the solver's add/remove/pin/resolve, the engine's
``start_flow``, the escalation policy, the packet references, traffic
generation, the packet codec, NF processing, the event loop).  Every
call made while the tracer is armed becomes a span ``(name, start,
end, parent)`` kept in flat in-memory lists; :meth:`Tracer.uninstall`
puts every original back.  Nothing in the program is edited.

:func:`layer_metrics` turns one repetition's spans into the per-layer
table.  A span's self time is its duration minus its children's, and
each span's self time is charged to one layer, so the layer self times
partition the repetition's wall time:

* the layer is the span name's prefix (``solver.resolve`` -> solver);
* everything under a packet-reference span is charged to ``packetref``
  (those calls run a whole packet-level microsimulation);
* the outermost ``sim.run`` of a repetition that admitted fluid flows
  is charged to ``engine``: its self time is the engine's bookkeeping
  between solver and escalation calls;
* time in no span is ``other`` (adapter glue, topology build).
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Layers of the per-layer split, in report order.
LAYERS = ("traffic", "net", "nf", "solver", "escalate", "packetref",
          "engine", "sim", "other")

#: Prefixes whose inclusive time is excluded from engine self time.
_NOT_ENGINE = ("solver", "escalate", "packetref")

#: Spans kept for the Chrome trace file (the first traced repetition,
#: truncated); every span still counts towards the metrics.
MAX_EXPORT_SPANS = 50_000


class _Hooks:
    """Counters the wrappers sample from call arguments and results."""

    def __init__(self) -> None:
        self.live_classes: List[int] = []
        self.changed_classes: List[int] = []
        self.path_classes: List[int] = []
        self.flows_generated = 0
        #: id(env) -> (scheduled, cancelled) of outermost event loops.
        self.envs: Dict[int, Tuple[int, int]] = {}


class Tracer:
    """Installs timing wrappers and records spans while armed."""

    def __init__(self) -> None:
        self._restore: List[Tuple[Any, str, Any]] = []
        #: The Chrome trace document kept by :meth:`keep_chrome_trace`.
        self.kept: Optional[dict] = None
        self._names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.armed = False
        self.reset()

    # -- span storage ----------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and samples (one repetition's worth)."""
        self.span_name: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        self._stack: List[int] = []
        self._run_depth = 0
        self.hooks = _Hooks()

    def _wrap(self, name: str, fn: Callable[..., Any],
              after: Optional[Callable[..., None]] = None
              ) -> Callable[..., Any]:
        name_id = self._name_id.setdefault(name, len(self._names))
        if name_id == len(self._names):
            self._names.append(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.armed:
                return fn(*args, **kwargs)
            stack = self._stack
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(index)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, name: str,
               after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        Class attributes are read raw from ``__dict__`` so classmethods
        stay classmethods.  ``lru_cache`` functions keep
        ``cache_clear``/``cache_info`` on the wrapper, because the
        engine's cache reset calls them through the patched name.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._restore.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(name, raw.__func__, after))
        else:
            wrapped = self._wrap(name, raw, after)
            for extra in ("cache_clear", "cache_info"):
                if hasattr(raw, extra):
                    setattr(wrapped, extra, getattr(raw, extra))
        setattr(owner, attr, wrapped)

    def install(self) -> "Tracer":
        """Wrap every traced public call (:meth:`uninstall` undoes it)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        from repro.flowsim import packetref
        from repro.flowsim.engine import FluidEngine
        from repro.flowsim.escalate import EscalationPolicy
        from repro.flowsim.solver import PathClassSolver
        from repro.net.packet import Packet
        from repro.nf import exec as nf_exec
        from repro.nf.aggregate import AggregateNF
        from repro.nf.firewall import FirewallNF
        from repro.nf.telemetry import TelemetryNF
        from repro.sim.core import Environment
        from repro.traffic import adapters
        from repro.traffic.base import TrafficScenario

        # The hooks object is replaced by reset(): look it up per call.
        def after_resolve(args: Sequence[Any], changed: Dict) -> None:
            self.hooks.live_classes.append(args[0].num_classes)
            self.hooks.changed_classes.append(len(changed))

        def after_start_flow(args: Sequence[Any], _result: Any) -> None:
            self.hooks.path_classes.append(args[0].path_classes)

        def after_generate(_args: Sequence[Any], flows: Sequence) -> None:
            self.hooks.flows_generated += len(flows)

        for method in ("add", "remove", "pin"):
            self._patch(PathClassSolver, method, f"solver.{method}")
        self._patch(PathClassSolver, "resolve", "solver.resolve",
                    after_resolve)
        self._patch(FluidEngine, "start_flow", "engine.start_flow",
                    after_start_flow)
        self._patch(EscalationPolicy, "classify", "escalate.classify")
        self._patch(EscalationPolicy, "pinned_rates",
                    "escalate.pinned_rates")
        for fn in ("packet_fan_in", "packet_pair", "packet_pfe_goodput"):
            self._patch(packetref, fn, f"packetref.{fn}")
        for cls in _subclasses(TrafficScenario):
            if "generate" in cls.__dict__:
                self._patch(cls, "generate", "traffic.generate",
                            after_generate)
        self._patch(adapters, "packet_stream", "traffic.packet_stream")
        # The adapter imported packet_view by name: patch its binding.
        self._patch(adapters, "packet_view", "nf.packet_view")
        self._patch(Packet, "udp", "net.packet_build")
        self._patch(nf_exec, "run_chain", "nf.run_chain")
        for cls in (FirewallNF, TelemetryNF, AggregateNF):
            self._patch(cls, "process", f"nf.{cls.name}.process")
        self._patch_run(Environment)
        return self

    def _patch_run(self, env_cls: Any) -> None:
        """Wrap ``Environment.run``, noting event counts of outer loops."""
        raw = env_cls.__dict__["run"]
        self._restore.append((env_cls, "run", raw))
        timed = self._wrap("sim.run", raw)
        tracer = self

        @functools.wraps(raw)
        def run(env: Any, *args: Any, **kwargs: Any) -> Any:
            tracer._run_depth += 1
            try:
                return timed(env, *args, **kwargs)
            finally:
                tracer._run_depth -= 1
                if tracer.armed and tracer._run_depth == 0:
                    tracer.hooks.envs[id(env)] = (
                        env.scheduled_events, env.cancelled_events)

        env_cls.run = run

    def uninstall(self) -> None:
        """Put every original back, in reverse order."""
        self.armed = False
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *_exc: Any) -> None:
        self.uninstall()

    # -- export ----------------------------------------------------------

    def chrome_trace(self, limit: int = MAX_EXPORT_SPANS) -> dict:
        """The recorded spans as a Chrome ``trace_event`` document."""
        if not self.span_start:
            return {"traceEvents": [], "displayTimeUnit": "ns"}
        origin = self.span_start[0]
        events = []
        for index in range(min(limit, len(self.span_name))):
            events.append({
                "name": self._names[self.span_name[index]],
                "ph": "X",
                "ts": (self.span_start[index] - origin) * 1e6,
                "dur": (self.span_end[index]
                        - self.span_start[index]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": self.span_parent[index]},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"spans": len(self.span_name),
                          "exported": len(events)},
        }

    def keep_chrome_trace(self) -> None:
        """Keep the current spans for :meth:`write_chrome_trace`."""
        self.kept = self.chrome_trace()

    def write_chrome_trace(self, path: str) -> List[str]:
        """Write the kept trace; return the schema problems found in it."""
        from repro.obs.trace import validate_chrome_trace

        doc = self.kept if self.kept is not None else self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return validate_chrome_trace(doc)

    # -- analysis --------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of the spans recorded since :meth:`reset`."""
        return layer_metrics(
            [self._names[i] for i in self.span_name], self.span_start,
            self.span_end, self.span_parent, self.hooks, wall_s)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(names: Sequence[str], start: Sequence[float],
                  end: Sequence[float], parent: Sequence[int],
                  hooks: _Hooks, wall_s: float) -> Dict[str, float]:
    """Fold one repetition's spans into the per-layer metric table.

    Spans are in start order, so a parent always precedes its
    children and one forward pass settles ancestry.
    """
    count = len(names)
    child_s = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            child_s[parent[i]] += end[i] - start[i]
    engine_active = "engine.start_flow" in names

    calls: Dict[str, int] = {}
    incl: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    #: layer each span's self time is charged to.
    charged: List[str] = [""] * count
    #: whether an ancestor is a solver/escalate/packetref span.
    covered = [False] * count
    top_level_s = 0.0
    outer_run_s = 0.0
    for i in range(count):
        name = names[i]
        dur = end[i] - start[i]
        prefix = name.split(".", 1)[0]
        up = parent[i]
        if up < 0:
            top_level_s += dur
            layer = prefix
        elif charged[up] == "packetref":
            layer = "packetref"
        else:
            layer = prefix
        if name == "sim.run" and not _under(i, parent, names, "sim.run"):
            outer_run_s += dur
            if engine_active:
                layer = "engine"
        if up >= 0:
            covered[i] = covered[up] or names[up].split(".", 1)[0] in \
                _NOT_ENGINE
        charged[i] = layer
        layer_self[layer] += dur - child_s[i]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        if name == "solver.resolve":
            durations.setdefault(name, []).append(dur)
    layer_self["other"] = max(0.0, wall_s - top_level_s)

    def top(prefix: str) -> float:
        return sum(end[i] - start[i] for i in range(count)
                   if names[i].startswith(prefix) and not covered[i])

    def total(name: str) -> float:
        return incl.get(name, 0.0)

    def ncalls(name: str) -> int:
        return calls.get(name, 0)

    resolve_us = [d * 1e6 for d in durations.get("solver.resolve", [])]
    update_names = ("solver.add", "solver.remove", "solver.pin")
    scheduled = sum(s for s, _c in hooks.envs.values())
    cancelled = sum(c for _s, c in hooks.envs.values())
    metrics: Dict[str, float] = {
        "solver.resolve_calls": ncalls("solver.resolve"),
        "solver.resolve_s": total("solver.resolve"),
        "solver.resolve_us_p50": _percentile(resolve_us, 0.50),
        "solver.resolve_us_p99": _percentile(resolve_us, 0.99),
        "solver.live_classes_mean": _mean(hooks.live_classes),
        "solver.changed_classes_mean": _mean(hooks.changed_classes),
        "solver.update_calls": sum(ncalls(n) for n in update_names),
        "solver.update_s": sum(total(n) for n in update_names),
        "engine.start_flow_s": total("engine.start_flow"),
        "engine.path_classes_mean": _mean(hooks.path_classes),
        "engine.run_self_s": (outer_run_s - top("solver.")
                              - top("escalate.") - top("packetref.")
                              if engine_active else 0.0),
        "escalate.classify_s": total("escalate.classify"),
        "escalate.pinned_rates_calls": ncalls("escalate.pinned_rates"),
        "escalate.pinned_rates_s": total("escalate.pinned_rates"),
        "packetref.s": sum(total(name) for name in incl
                           if name.startswith("packetref.")),
        "traffic.generate_s": total("traffic.generate"),
        "traffic.flows_generated": hooks.flows_generated,
        "traffic.packet_stream_s": total("traffic.packet_stream"),
        "net.packet_build_s": total("net.packet_build"),
        "nf.packet_view_s": total("nf.packet_view"),
        "nf.run_chain_s": total("nf.run_chain"),
        "sim.scheduled_events": scheduled,
        "sim.cancelled_events": cancelled,
        "sim.run_s": outer_run_s,
    }
    for nf in ("firewall", "telemetry", "aggregate"):
        metrics[f"nf.{nf}.process_calls"] = ncalls(f"nf.{nf}.process")
        metrics[f"nf.{nf}.process_s"] = total(f"nf.{nf}.process")
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = layer_self[layer]
        metrics[f"share.{layer}"] = (layer_self[layer] / wall_s
                                     if wall_s > 0 else 0.0)
    return metrics


def _under(i: int, parent: Sequence[int], names: Sequence[str],
           name: str) -> bool:
    """Whether span ``i`` has an ancestor called ``name``."""
    up = parent[i]
    while up >= 0:
        if names[up] == name:
            return True
        up = parent[up]
    return False
