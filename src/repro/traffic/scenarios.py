"""The built-in scenario families.

Six workload shapes cover the load classes the paper's three Trio
applications face (firewall, telemetry, in-network aggregation), after
the taxonomy of the datacenter traffic-generation literature
(Parsonson et al., PAPERS.md):

``websearch``
    Query/response traffic from the web-search flow-size CDF — mice
    plus a multi-MB elephant tail — with Poisson arrivals and uniform
    endpoints.
``cache``
    Key-value traffic: tiny objects from the cache CDF, on/off
    burst-modulated arrivals, Zipf-skewed destination popularity (hot
    shards).
``incast``
    Bulk lognormal background plus synchronised fan-in bursts
    (``"incast"`` service — the classic escalation trigger).
``microburst``
    Bulk background plus microburst *trains*: repeated back-to-back
    fan-in waves of tiny flows (``"microburst"`` service, the new
    escalation class).
``ddos``
    Benign background plus spoofed-source flood volleys converging on a
    small victim set (``"ddos"`` service); the packet adapter maps the
    flood onto few spoofed source IPs so the firewall NF's per-source
    policers trip.
``heavy-hitter``
    Pareto (heavy-tailed) sizes with Zipf-skewed endpoint popularity —
    the few-flows-carry-most-bytes skew the telemetry NF's heavy-hitter
    tables must survive.

Every family keeps its offered load comfortably below the fabric's
bottlenecks so the fluid level's active-flow set stays bounded at
10^5–10^6 flows.

:class:`HybridScenario`, the canonical workload of the ``hybrid``
sweep, is built here too but not registered.  It, ``incast``,
``microburst`` and ``ddos`` share one arrival loop
(:class:`BurstScenario`) and differ only in their burst emitters.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, List, Optional, Tuple

from repro.flowsim.escalate import EscalationConfig
from repro.flowsim.flow import FlowSpec
from repro.sim import Environment
from repro.traffic.base import FabricShape, TrafficScenario
from repro.traffic.registry import register_scenario
from repro.traffic.samplers import (
    ArrivalProcess,
    CACHE_SIZE_CDF,
    CDFTableSizes,
    ExponentialSizes,
    LognormalSizes,
    OnOffArrivals,
    ParetoSizes,
    PoissonArrivals,
    SizeSampler,
    WEBSEARCH_SIZE_CDF,
    ZipfPopularity,
    fan_in_burst,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "DDoSScenario",
    "FanInScenario",
    "HybridScenario",
    "MixedScenario",
    "register_builtin_scenarios",
]


class MixedScenario(TrafficScenario):
    """Independent flows: pluggable size law, arrivals, endpoint skew.

    Arrival rate is sized so offered load is ``load`` times the
    aggregate host access bandwidth (the same convention as
    :class:`BurstScenario`).  With ``burst_arrivals`` the Poisson
    process is replaced by an on/off modulated one at the same long-run
    rate; with ``dst_skew`` / ``src_skew`` endpoints are drawn
    Zipf(popularity rank = host index) instead of uniformly.
    """

    def __init__(
        self,
        name: str,
        description: str,
        sizes: SizeSampler,
        mean_size_bytes: float,
        load: float = 0.5,
        dst_skew: float = 0.0,
        src_skew: float = 0.0,
        service: str = "bulk",
        burst_arrivals: Optional[Tuple[int, float]] = None,
        fabric: FabricShape = FabricShape(),
    ):
        super().__init__(fabric)
        if not 0.0 < load < 1.0:
            raise ValueError(f"load must be in (0, 1): {load}")
        self.name = name
        self.description = description
        self.sizes = sizes
        self.mean_size_bytes = mean_size_bytes
        self.load = load
        self.dst_skew = dst_skew
        self.src_skew = src_skew
        self.service = service
        #: (flows per on-burst, duty cycle) — None means plain Poisson.
        self.burst_arrivals = burst_arrivals

    def arrival_rate_per_s(self) -> float:
        return (self.fabric.aggregate_access_bps * self.load
                / (self.mean_size_bytes * 8.0))

    def _arrivals(self) -> ArrivalProcess:
        rate = self.arrival_rate_per_s()
        if self.burst_arrivals is None:
            return PoissonArrivals(rate)
        flows_per_burst, duty = self.burst_arrivals
        on_rate = rate / duty
        mean_on_s = flows_per_burst / on_rate
        mean_off_s = mean_on_s * (1.0 - duty) / duty
        return OnOffArrivals(on_rate, mean_on_s, mean_off_s)

    def generate(self, env: Environment,
                 num_flows: int) -> List[FlowSpec]:
        rng = self.rng(env)
        fabric = self.fabric
        hosts = fabric.host_names()
        n = fabric.num_hosts
        arrivals = self._arrivals()
        dst_pop = (ZipfPopularity(n, self.dst_skew)
                   if self.dst_skew > 0 else None)
        src_pop = (ZipfPopularity(n, self.src_skew)
                   if self.src_skew > 0 else None)
        flows: List[FlowSpec] = []
        now = 0.0
        for flow_id in range(num_flows):
            now = arrivals.next_after(rng, now)
            if src_pop is not None:
                src = src_pop.sample(rng)
            else:
                src = rng.randrange(n)
            if dst_pop is not None:
                dst = dst_pop.sample(rng)
                if dst == src:
                    dst = (dst + 1) % n
            else:
                dst = rng.randrange(n - 1)
                if dst >= src:
                    dst += 1
            flows.append(FlowSpec(
                flow_id=flow_id,
                src=hosts[src],
                dst=hosts[dst],
                size_bytes=self.sizes.sample(rng),
                start_s=now,
                service=self.service,
            ))
        return flows


#: Emits one burst at time ``now``: appends its flows to ``flows``
#: (ids continuing from ``len(flows)``) and returns how many it added.
BurstEmitter = Callable[[Random, List[str], float, List[FlowSpec]], int]


@dataclass(frozen=True)
class FanIn:
    """A synchronised fan-in burst: one victim, ``degree`` distinct
    senders (via :func:`~repro.traffic.samplers.fan_in_burst`), sending
    ``rounds`` back-to-back waves spaced ``spacing_s`` apart.  One round
    is a classic incast; several rounds of tiny flows are a microburst
    train."""

    degree: int
    flow_bytes: float
    service: str
    rounds: int = 1
    spacing_s: float = 0.0

    def __call__(self, rng: Random, hosts: List[str], now: float,
                 flows: List[FlowSpec]) -> int:
        victim, senders = fan_in_burst(rng, len(hosts), self.degree)
        dst = hosts[victim]
        for wave in range(self.rounds):
            when = now + wave * self.spacing_s
            for sender in senders:
                flows.append(FlowSpec(
                    flow_id=len(flows),
                    src=hosts[sender],
                    dst=dst,
                    size_bytes=self.flow_bytes,
                    start_s=when,
                    service=self.service,
                ))
        return len(senders) * self.rounds


class BurstScenario(TrafficScenario):
    """Poisson arrivals of uniform ``"bulk"`` flows, some of them bursts.

    At each arrival every burst kind, in :meth:`burst_kinds` order and
    while its flow budget (``fraction`` of the flow count) lasts, wins
    with probability ``fraction`` and emits its burst; if none wins the
    arrival is one background flow.  Subclasses supply only the kinds.
    """

    def __init__(self, background: SizeSampler, mean_size_bytes: float,
                 load: float, fabric: FabricShape):
        super().__init__(fabric)
        if not 0.0 < load < 1.0:
            raise ValueError(f"load must be in (0, 1): {load}")
        self.background = background
        self.mean_size_bytes = mean_size_bytes
        self.load = load

    @abc.abstractmethod
    def burst_kinds(self) -> Tuple[Tuple[float, BurstEmitter], ...]:
        """``(fraction, emitter)`` per burst kind, in draw order."""

    def generate(self, env: Environment,
                 num_flows: int) -> List[FlowSpec]:
        rng = self.rng(env)
        fabric = self.fabric
        hosts = fabric.host_names()
        n = fabric.num_hosts
        rate = (fabric.aggregate_access_bps * self.load
                / (self.mean_size_bytes * 8.0))
        # [fraction, remaining budget, emitter] per kind whose budget
        # is left; a spent kind draws nothing, so it leaves the list.
        kinds: List[List[Any]] = [
            [fraction, budget, emit]
            for fraction, emit in self.burst_kinds()
            if (budget := int(num_flows * fraction)) > 0
        ]
        # Hot loop: bind the per-flow calls once.
        expovariate, random, randrange = (
            rng.expovariate, rng.random, rng.randrange)
        size = self.background.sample
        flows: List[FlowSpec] = []
        append = flows.append
        now = 0.0
        while len(flows) < num_flows:
            now += expovariate(rate)
            for kind in kinds:
                if random() < kind[0]:
                    kind[1] -= kind[2](rng, hosts, now, flows)
                    if kind[1] <= 0:
                        kinds.remove(kind)
                    break
            else:
                src = randrange(n)
                dst = randrange(n - 1)
                if dst >= src:
                    dst += 1
                append(FlowSpec(
                    flow_id=len(flows),
                    src=hosts[src],
                    dst=hosts[dst],
                    size_bytes=size(rng),
                    start_s=now,
                    service="bulk",
                ))
        return flows[:num_flows]


class FanInScenario(BurstScenario):
    """Bulk background plus synchronised fan-in bursts (:class:`FanIn`)."""

    def __init__(
        self,
        name: str,
        description: str,
        background: SizeSampler,
        mean_size_bytes: float,
        load: float = 0.5,
        burst_fraction: float = 0.06,
        burst_degree: int = 12,
        burst_flow_bytes: float = 40_000.0,
        burst_rounds: int = 1,
        round_spacing_s: float = 2e-6,
        burst_service: str = "incast",
        fabric: FabricShape = FabricShape(),
    ):
        super().__init__(background, mean_size_bytes, load, fabric)
        if burst_degree < 1 or burst_rounds < 1:
            raise ValueError(
                f"burst geometry must be >= 1: {burst_degree}, "
                f"{burst_rounds}"
            )
        self.name = name
        self.description = description
        self.burst_fraction = burst_fraction
        self.burst = FanIn(burst_degree, burst_flow_bytes, burst_service,
                           burst_rounds, round_spacing_s)

    def burst_kinds(self) -> Tuple[Tuple[float, BurstEmitter], ...]:
        return ((self.burst_fraction, self.burst),)


class DDoSScenario(BurstScenario):
    """Benign background plus spoofed-source flood volleys.

    A volley is ``flood_degree`` small ``"ddos"`` flows launched at the
    same instant from distinct compromised hosts, all converging on one
    of ``victims`` fixed victim hosts.  At the fluid level the fan-in
    drives the ``"ddos"`` escalation class; at the packet level the
    adapter maps flood flows onto ``spoofed_sources`` source IPs so the
    firewall NF's per-source per-epoch policers trip and blocklisting
    engages.
    """

    def __init__(
        self,
        name: str,
        description: str,
        background: SizeSampler,
        mean_size_bytes: float,
        load: float = 0.3,
        attack_fraction: float = 0.35,
        flood_degree: int = 20,
        flood_flow_bytes: float = 6_000.0,
        victims: int = 2,
        spoofed_sources: int = 4,
        fabric: FabricShape = FabricShape(),
    ):
        super().__init__(background, mean_size_bytes, load, fabric)
        if victims < 1 or victims >= fabric.num_hosts:
            raise ValueError(f"victim pool out of range: {victims}")
        if spoofed_sources < 1:
            raise ValueError(
                f"spoofed pool must be >= 1: {spoofed_sources}")
        self.name = name
        self.description = description
        self.attack_fraction = attack_fraction
        self.flood_degree = flood_degree
        self.flood_flow_bytes = flood_flow_bytes
        self.victims = victims
        self.spoofed_sources = spoofed_sources

    def victim_hosts(self) -> List[str]:
        """The fixed victim pool: the last ``victims`` fabric hosts."""
        return self.fabric.host_names()[-self.victims:]

    def burst_kinds(self) -> Tuple[Tuple[float, BurstEmitter], ...]:
        return ((self.attack_fraction, self._volley),)

    def _volley(self, rng: Random, hosts: List[str], now: float,
                flows: List[FlowSpec]) -> int:
        n = len(hosts)
        victim = n - 1 - rng.randrange(self.victims)
        senders = rng.sample([h for h in range(n) if h != victim],
                             min(self.flood_degree, n - 1))
        dst = hosts[victim]
        for sender in senders:
            flows.append(FlowSpec(
                flow_id=len(flows),
                src=hosts[sender],
                dst=dst,
                size_bytes=self.flood_flow_bytes,
                start_s=now,
                service="ddos",
            ))
        return len(senders)


class HybridScenario(BurstScenario):
    """The canonical hybrid-simulation workload.

    Poisson arrivals with exponential sizes, synchronised allreduce
    steps (``"aggregation"`` fan-ins: the PFE hash-contention escalation
    trigger), incast fan-ins, and one straggler host — every escalation
    reason the fluid level has.  The ``hybrid`` sweep, the profile slice
    and the flowsim bench run it; it is not registered, so the traffic
    sweep stays at the six families.
    """

    name = "hybrid"
    description = ("exponential bulk with aggregation and incast fan-ins "
                   "and a straggler host")
    #: A synchronised allreduce step: six workers ship a gradient block
    #: to one aggregation point at the same instant.  Gradient blocks
    #: are small and fixed-size: their packet-pinned service rate is
    #: low (the contended PFE path), so bulk-sized blocks would overload
    #: that path and grow the active set without bound.
    aggregation_burst = FanIn(degree=6, flow_bytes=50_000.0,
                              service="aggregation")
    #: A classic incast: twelve short flows into one host.
    incast_burst = FanIn(degree=12, flow_bytes=40_000.0, service="incast")
    #: Hosts whose transmit side straggles.
    straggler_hosts: Tuple[str, ...] = ("h00-00",)

    def __init__(self, load: float = 0.5, mean_flow_bytes: float = 2e6,
                 incast_fraction: float = 0.05,
                 aggregation_fraction: float = 0.02,
                 fabric: FabricShape = FabricShape()):
        super().__init__(ExponentialSizes(mean_flow_bytes),
                         mean_flow_bytes, load, fabric)
        for knob, fraction in (("incast_fraction", incast_fraction),
                               ("aggregation_fraction",
                                aggregation_fraction)):
            if not 0.0 <= fraction <= 1.0:  # false for NaN too
                raise ValueError(f"{knob} must be in [0, 1]: {fraction}")
        if incast_fraction + aggregation_fraction > 1.0:
            raise ValueError(
                "incast_fraction + aggregation_fraction must be at most 1: "
                f"{incast_fraction} + {aggregation_fraction}"
            )
        self.incast_fraction = incast_fraction
        self.aggregation_fraction = aggregation_fraction

    @property
    def stream_key(self) -> str:
        # Predates the traffic registry's "traffic/<name>" streams; the
        # pinned goldens depend on this stream's draws.
        return "flowsim/scenario"

    def burst_kinds(self) -> Tuple[Tuple[float, BurstEmitter], ...]:
        return ((self.aggregation_fraction, self.aggregation_burst),
                (self.incast_fraction, self.incast_burst))

    def escalation(self) -> EscalationConfig:
        return EscalationConfig(straggler_hosts=self.straggler_hosts)


def _builtin_scenarios() -> Tuple[TrafficScenario, ...]:
    """Construct one instance of each built-in family."""
    websearch_sizes = CDFTableSizes(WEBSEARCH_SIZE_CDF)
    cache_sizes = CDFTableSizes(CACHE_SIZE_CDF)
    return (
        MixedScenario(
            "websearch",
            "web-search flow-size CDF, Poisson arrivals, uniform "
            "endpoints",
            sizes=websearch_sizes,
            mean_size_bytes=websearch_sizes.mean_bytes,
            load=0.5,
        ),
        MixedScenario(
            "cache",
            "cache-follower sizes, on/off burst-modulated arrivals, "
            "Zipf-hot destination shards",
            sizes=cache_sizes,
            mean_size_bytes=cache_sizes.mean_bytes,
            load=0.08,
            dst_skew=0.9,
            burst_arrivals=(64, 0.25),
        ),
        FanInScenario(
            "incast",
            "lognormal bulk background plus synchronised incast "
            "fan-in bursts",
            background=LognormalSizes(mean_bytes=2e6, sigma=1.0),
            mean_size_bytes=2e6,
            load=0.5,
            burst_fraction=0.06,
            burst_degree=12,
            burst_flow_bytes=40_000.0,
            burst_service="incast",
        ),
        FanInScenario(
            "microburst",
            "bulk background plus microburst trains: repeated fan-in "
            "waves of tiny flows",
            background=ExponentialSizes(mean_bytes=2e6),
            mean_size_bytes=2e6,
            load=0.3,
            burst_fraction=0.12,
            burst_degree=8,
            burst_flow_bytes=8_000.0,
            burst_rounds=4,
            round_spacing_s=2e-6,
            burst_service="microburst",
        ),
        DDoSScenario(
            "ddos",
            "benign background plus spoofed-source flood volleys on a "
            "small victim set",
            background=ExponentialSizes(mean_bytes=2e6),
            mean_size_bytes=2e6,
            load=0.3,
        ),
        MixedScenario(
            "heavy-hitter",
            "Pareto heavy-tailed sizes with Zipf-skewed endpoint "
            "popularity",
            sizes=ParetoSizes(alpha=1.3),
            mean_size_bytes=ParetoSizes(alpha=1.3).mean_bytes,
            load=0.15,
            dst_skew=1.1,
            src_skew=1.1,
        ),
    )


BUILTIN_SCENARIOS: Tuple[TrafficScenario, ...] = _builtin_scenarios()


def register_builtin_scenarios(replace: bool = True) -> None:
    """(Re-)register the built-in families; idempotent on re-import."""
    for scenario in BUILTIN_SCENARIOS:
        register_scenario(scenario, replace=replace)


register_builtin_scenarios()
