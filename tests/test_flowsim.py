"""Tests for the two-level hybrid flow/packet simulation (repro.flowsim).

Covers the max-min solver's fairness invariants, the fluid engine's
closed-form completions and level-aware scheduling, the escalation
boundary (classification, packet-pinned rates, obs visibility), and the
fluid/packet calibration bridge.
"""

import pytest

from repro import obs
from repro.flowsim import (
    DEFAULT_MTU_PAYLOAD_BYTES,
    EscalationConfig,
    EscalationPolicy,
    FlowSpec,
    FluidEngine,
    MIN_RATE_BPS,
    PathClassSolver,
    ScenarioConfig,
    build_leaf_spine,
    generate_flows,
    packet_fan_in,
    packet_pair,
    reset_reference_caches,
    run_scenario,
    wire_efficiency,
)
from repro.flowsim.calibrate import FlowCalibrationSpec, calibrate
from repro.flowsim.escalate import _degree_bucket
from repro.flowsim.scenario import host_name
from repro.sim import FLOW_LEVEL_PRIORITY, PACKET_LEVEL_PRIORITY, Environment
from tests.flowsim_oracles import max_min_class_rates, max_min_rates


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


class TestMaxMinSolver:
    def test_equal_share_single_link(self):
        rates = max_min_rates({1: (0,), 2: (0,), 3: (0,)}, {0: 30e9})
        assert rates == {1: pytest.approx(10e9), 2: pytest.approx(10e9),
                         3: pytest.approx(10e9)}

    def test_classic_max_min_example(self):
        # Flow 1 crosses both links; flow 2 only the narrow one; flow 3
        # only the wide one.  Flow 2 and flow 1 share the 10G bottleneck
        # at 5G each; flow 3 gets the wide link's remainder.
        rates = max_min_rates(
            {1: (0, 1), 2: (0,), 3: (1,)},
            {0: 10e9, 1: 20e9},
        )
        assert rates[1] == pytest.approx(5e9)
        assert rates[2] == pytest.approx(5e9)
        assert rates[3] == pytest.approx(15e9)

    def test_pinned_demand_is_subtracted(self):
        rates = max_min_rates({1: (0,)}, {0: 10e9}, pinned_bps={0: 4e9})
        assert rates[1] == pytest.approx(6e9)

    def test_pinned_saturation_hits_rate_floor_not_zero(self):
        rates = max_min_rates({1: (0,)}, {0: 10e9}, pinned_bps={0: 20e9})
        assert rates[1] == MIN_RATE_BPS

    def test_no_capacity_left_idle_when_demand_exists(self):
        rates = max_min_rates(
            {1: (0,), 2: (0, 1)}, {0: 10e9, 1: 4e9})
        # Flow 2 is bottlenecked at 4G, so flow 1 takes the rest.
        assert rates[2] == pytest.approx(4e9)
        assert rates[1] == pytest.approx(6e9)

    def test_deterministic(self):
        flows = {i: (i % 3, 3 + i % 2) for i in range(20)}
        caps = {0: 10e9, 1: 12e9, 2: 8e9, 3: 40e9, 4: 25e9}
        assert max_min_rates(flows, caps) == max_min_rates(flows, caps)


# ---------------------------------------------------------------------------
# Path-class solver: bit-identical to the per-flow reference
# ---------------------------------------------------------------------------


def _random_instance(rng):
    """A randomized solver instance spanning the solver's corner cases.

    Capacities range down to MIN_RATE_BPS scale (so the rate floor
    engages), pinned demand covers none/partial/exact/over-saturation
    (so pinned subtraction and the clamp at zero both engage), and
    signatures include empty paths and repeated links.
    """
    nlinks = rng.randint(1, 40)
    caps = {i: rng.choice([1e3, 1e4, 1e6, 1e9]) * rng.uniform(0.5, 2.0)
            for i in range(nlinks)}
    class_flows = {}
    for _ in range(rng.randint(1, 60)):
        sig = tuple(rng.choices(range(nlinks), k=rng.randint(0, 6)))
        mult = rng.randint(1, 50) if rng.random() < 0.3 else 1
        class_flows[sig] = class_flows.get(sig, 0) + mult
    pinned = {}
    for i in range(nlinks):
        r = rng.random()
        if r < 0.15:
            pinned[i] = 0.0
        elif r < 0.3:
            pinned[i] = caps[i] * 0.5
        elif r < 0.4:
            pinned[i] = caps[i]          # exactly saturated
        elif r < 0.45:
            pinned[i] = caps[i] * 2.0    # over-saturated -> rate floor
    return caps, class_flows, pinned


def _expand(class_flows):
    """Per-flow inputs for the reference: one flow per class member."""
    flows = {}
    fid = 0
    for sig, mult in sorted(class_flows.items()):
        for _ in range(mult):
            flows[fid] = list(sig)
            fid += 1
    return flows


def _reference_by_class(class_flows, caps, pinned):
    """Reference rates regrouped per class; asserts members agree."""
    flows = _expand(class_flows)
    ref = max_min_rates(flows, caps, pinned)
    by_class = {}
    fid = 0
    for sig, mult in sorted(class_flows.items()):
        rates = {ref[fid + k] for k in range(mult)}
        assert len(rates) == 1, f"members of {sig} diverge: {rates}"
        by_class[sig] = rates.pop()
        fid += mult
    return by_class


class TestPathClassSolverEquivalence:
    """The incremental class solver must be *bit-identical* (==, not
    approx) to the from-scratch per-flow reference."""

    def test_one_shot_equivalence_randomized(self):
        import random
        for trial in range(120):
            rng = random.Random(trial * 7919 + 13)
            caps, class_flows, pinned = _random_instance(rng)
            got = max_min_class_rates(class_flows, caps, pinned)
            assert got == _reference_by_class(class_flows, caps, pinned)

    def test_incremental_churn_equivalence_randomized(self):
        # Random add/remove/pin churn with a solve every few steps:
        # the live incremental state must keep matching a fresh
        # reference solve over the same flows, and the changed set
        # must be exactly the classes whose rate moved.
        import random
        for trial in range(12):
            rng = random.Random(trial * 104729 + 7)
            nlinks = rng.randint(2, 30)
            caps = {i: rng.choice([1e3, 1e5, 1e8, 1e9])
                    * rng.uniform(0.5, 2.0) for i in range(nlinks)}
            solver = PathClassSolver(caps)
            live, last = {}, {}
            for step in range(400):
                op = rng.random()
                if op < 0.45 or not live:
                    sig = tuple(rng.choices(range(nlinks),
                                            k=rng.randint(0, 5)))
                    solver.add(sig)
                    live[sig] = live.get(sig, 0) + 1
                elif op < 0.8:
                    sig = rng.choice(sorted(live))
                    solver.remove(sig)
                    live[sig] -= 1
                    if not live[sig]:
                        del live[sig]
                        last.pop(sig, None)
                else:
                    i = rng.randrange(nlinks)
                    delta = (rng.choice([1.0, -1.0]) * caps[i]
                             * rng.uniform(0, 0.6))
                    if solver.pinned_demand(i) + delta < 0:
                        delta = -solver.pinned_demand(i)
                    solver.pin(i, delta)
                if step % 5 != 4:
                    continue
                changed = solver.resolve()
                got = solver.solve()
                pinned = {i: solver.pinned_demand(i)
                          for i in range(nlinks)}
                assert got == _reference_by_class(live, caps, pinned)
                want = {s: r for s, r in got.items()
                        if last.get(s, object()) != r}
                assert changed == want
                last = dict(got)

    def test_pinned_demand_override_equivalence(self):
        import random
        rng = random.Random(42)
        caps, class_flows, _ = _random_instance(rng)
        solver = PathClassSolver(caps)
        for sig, mult in class_flows.items():
            solver.add(sig, mult)
        # Accumulate unrelated pin state, then override it per call:
        # the override must win, exactly as in the reference.
        solver.pin(0, caps[0] * 0.25)
        for _ in range(8):
            override = {i: caps[i] * rng.choice([0.0, 0.5, 1.0, 2.0])
                        for i in rng.sample(range(len(caps)),
                                            k=len(caps) // 2 or 1)}
            got = solver.solve(override)
            assert got == _reference_by_class(class_flows, caps, override)

    def test_min_rate_floor_and_saturated_links(self):
        # Every link fully pinned: all classes land exactly on the
        # floor, bit-identical to the reference's `share is None` path.
        caps = {0: 10e9, 1: 2e9}
        class_flows = {(0,): 3, (0, 1): 2, (1, 1): 1, (): 4}
        pinned = {0: 10e9, 1: 4e9}
        got = max_min_class_rates(class_flows, caps, pinned)
        assert got == _reference_by_class(class_flows, caps, pinned)
        assert set(got.values()) == {MIN_RATE_BPS}

    def test_multiplicity_matches_expanded_flows(self):
        # One class of N flows must see exactly the same share as N
        # separate flows in the reference — including the per-flow
        # capacity-drain rounding.
        caps = {0: 9.9e9, 1: 3.3e9}
        class_flows = {(0,): 7, (0, 1): 5, (1,): 11}
        got = max_min_class_rates(class_flows, caps)
        assert got == _reference_by_class(class_flows, caps, {})

    def test_dead_class_recreation_reports_changed(self):
        solver = PathClassSolver({0: 10e9})
        solver.add((0,), 2)
        first = solver.resolve()
        assert first == {(0,): 5e9}
        solver.remove((0,))
        solver.remove((0,))
        assert solver.resolve() == {}
        # Re-created at the same rate: must still be reported, since
        # the engine builds a fresh class object for it.
        solver.add((0,), 2)
        assert solver.resolve() == {(0,): 5e9}


class TestSolverBoundary:
    @pytest.mark.parametrize("capacity", [float("nan"), -1.0])
    def test_bad_capacity_rejected_at_intern(self, capacity):
        solver = PathClassSolver({1: capacity})
        with pytest.raises(ValueError, match="link 1 capacity"):
            solver.add((1,))
        with pytest.raises(ValueError, match="link 1 capacity"):
            solver.pin(1, 0.0)

    def test_add_over_unknown_link_names_it(self):
        solver = PathClassSolver({0: 10e9})
        with pytest.raises(ValueError, match="link 7 has no capacity"):
            solver.add((0, 7), 2)
        # The rejected add left no trace: the solver still works.
        assert solver.num_classes == 0 and solver.num_flows == 0
        solver.add((0,), 2)
        assert solver.resolve() == {(0,): 5e9}

    def test_remove_absent_class_rejected(self):
        solver = PathClassSolver({0: 10e9})
        with pytest.raises(ValueError, match="no live path class"):
            solver.remove((0,))
        solver.add((0,))
        solver.remove((0,))
        with pytest.raises(ValueError, match="no live path class"):
            solver.remove((0,))


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _engine(policy=None, **fabric):
    env = Environment()
    config = ScenarioConfig(leaves=1, hosts_per_leaf=16, **fabric)
    topology = build_leaf_spine(env, config)
    engine = FluidEngine(env, topology,
                         policy=policy or EscalationPolicy())
    return env, engine


class TestFluidEngine:
    def test_single_flow_closed_form_fct(self):
        env, engine = _engine()
        size = 1e6
        engine.start_flow(FlowSpec(flow_id=1, src=host_name(0, 0),
                                   dst=host_name(0, 1),
                                   size_bytes=size, start_s=0.0))
        env.run()
        (record,) = engine.records
        efficiency = wire_efficiency(DEFAULT_MTU_PAYLOAD_BYTES)
        transfer = size * 8 / (100e9 * efficiency)
        assert record.fct_s == pytest.approx(transfer, rel=0.05)
        assert record.goodput_bps == pytest.approx(size * 8 / record.fct_s)
        assert record.escalated is None

    def test_two_flows_share_then_speed_up(self):
        # Two equal flows into one host halve each other's rate; FCT of
        # the pair is ~2x a lone flow, not 1x (fair share) and the
        # engine must re-solve at the first departure.
        env, engine = _engine()
        size = 1e6
        for fid, src in ((1, host_name(0, 1)), (2, host_name(0, 2))):
            engine.start_flow(FlowSpec(flow_id=fid, src=src,
                                       dst=host_name(0, 0),
                                       size_bytes=size, start_s=0.0))
        env.run()
        assert len(engine.records) == 2
        lone = size * 8 / (100e9 * wire_efficiency())
        for record in engine.records:
            assert record.fct_s == pytest.approx(2 * lone, rel=0.05)

    def test_late_arrival_triggers_resolve(self):
        env, engine = _engine()
        size = 4e6
        engine.start_flow(FlowSpec(flow_id=1, src=host_name(0, 1),
                                   dst=host_name(0, 0),
                                   size_bytes=size, start_s=0.0))
        env.call_at(1e-4, engine.start_flow,
                    FlowSpec(flow_id=2, src=host_name(0, 2),
                             dst=host_name(0, 0),
                             size_bytes=size, start_s=1e-4))
        env.run()
        first = next(r for r in engine.records if r.flow_id == 1)
        lone = size * 8 / (100e9 * wire_efficiency())
        # Flow 1 ran alone for 1e-4 s, then shared: slower than a lone
        # run but faster than full-time sharing.
        assert lone < first.fct_s < 2 * lone

    def test_flow_level_events_run_after_packet_level(self):
        env = Environment()
        order = []
        env.call_at(1.0, lambda: order.append("flow"),
                    priority=FLOW_LEVEL_PRIORITY)
        env.call_at(1.0, lambda: order.append("packet"),
                    priority=PACKET_LEVEL_PRIORITY)
        env.run()
        assert order == ["packet", "flow"]

    def test_same_timestamp_arrivals_coalesce_into_one_solve(self):
        env, engine = _engine()
        for fid in range(8):
            env.call_at(0.0, engine.start_flow,
                        FlowSpec(flow_id=fid, src=host_name(0, 1 + fid),
                                 dst=host_name(0, 0),
                                 size_bytes=2e5, start_s=0.0))
        env.run()
        # One solve for the batch arrival + one per completion batch,
        # not one per arrival.
        assert engine.solves <= 3

    def test_duplicate_flow_id_rejected(self):
        env, engine = _engine()
        spec = FlowSpec(flow_id=1, src=host_name(0, 0),
                        dst=host_name(0, 1), size_bytes=1e4, start_s=0.0)
        engine.start_flow(spec)
        with pytest.raises(ValueError, match="duplicate flow id"):
            engine.start_flow(spec)

    def test_fluid_state_cleaned_up_after_completion(self):
        env, engine = _engine()
        engine.start_flow(FlowSpec(flow_id=1, src=host_name(0, 0),
                                   dst=host_name(0, 1),
                                   size_bytes=1e5, start_s=0.0))
        env.run()
        assert not engine.active
        src = engine.topology.hosts[host_name(0, 0)]
        dst = engine.topology.hosts[host_name(0, 1)]
        assert not src.fluid_tx_flows and not dst.fluid_rx_flows
        assert src.fluid_tx_bytes == pytest.approx(1e5)
        assert dst.fluid_rx_bytes == pytest.approx(1e5)
        for link in engine.topology.links:
            for port in link.ports:
                assert link.fluid_load_bps(port) == 0.0


# ---------------------------------------------------------------------------
# Escalation boundary
# ---------------------------------------------------------------------------


class TestEscalation:
    def test_degree_bucketing(self):
        assert _degree_bucket(1) == 2
        assert _degree_bucket(2) == 2
        assert _degree_bucket(3) == 4
        assert _degree_bucket(12) == 16
        assert _degree_bucket(100) == 32  # clamped

    def test_incast_burst_escalates_past_threshold(self):
        policy = EscalationPolicy(EscalationConfig(incast_degree=4))
        env, engine = _engine(policy=policy)
        for fid in range(8):
            env.call_at(0.0, engine.start_flow,
                        FlowSpec(flow_id=fid, src=host_name(0, 1 + fid),
                                 dst=host_name(0, 0),
                                 size_bytes=4e4, start_s=0.0))
        env.run()
        escalated = [r for r in engine.records if r.escalated == "incast"]
        # Arrivals below the fan-in threshold stay fluid; the rest of
        # the burst crosses the boundary.
        assert len(escalated) == 5
        assert engine.escalations == {"incast": 5}

    def test_large_flows_stay_fluid_inside_incast(self):
        policy = EscalationPolicy(EscalationConfig(
            incast_degree=4, incast_max_flow_bytes=1e5))
        env, engine = _engine(policy=policy)
        for fid in range(8):
            env.call_at(0.0, engine.start_flow,
                        FlowSpec(flow_id=fid, src=host_name(0, 1 + fid),
                                 dst=host_name(0, 0),
                                 size_bytes=5e6, start_s=0.0))
        env.run()
        assert engine.escalations == {}

    def test_straggler_host_escalates_and_is_rate_limited(self):
        policy = EscalationPolicy(EscalationConfig(
            straggler_hosts=(host_name(0, 0),),
            straggler_tx_overhead_s=2e-6,
        ))
        env, engine = _engine(policy=policy)
        engine.start_flow(FlowSpec(flow_id=1, src=host_name(0, 0),
                                   dst=host_name(0, 1),
                                   size_bytes=1e6, start_s=0.0))
        env.run()
        (record,) = engine.records
        assert record.escalated == "straggler"
        # A 2 us/packet host cost caps a 1458 B payload stream near
        # 5.8 Gbps — far below the 100G access link.
        assert record.goodput_bps < 10e9

    def test_aggregation_contention_escalates(self):
        policy = EscalationPolicy(EscalationConfig(
            pfe_contention_threshold=4))
        env, engine = _engine(policy=policy)
        for fid in range(6):
            env.call_at(0.0, engine.start_flow,
                        FlowSpec(flow_id=fid, src=host_name(0, 1 + fid),
                                 dst=host_name(0, 0),
                                 size_bytes=5e4, start_s=0.0,
                                 service="aggregation"))
        env.run()
        assert engine.escalations.get("pfe-hash") == 3

    def test_escalations_visible_through_obs(self):
        session = obs.enable(scope="test")
        try:
            policy = EscalationPolicy(EscalationConfig(incast_degree=2))
            env, engine = _engine(policy=policy)
            for fid in range(4):
                env.call_at(0.0, engine.start_flow,
                            FlowSpec(flow_id=fid,
                                     src=host_name(0, 1 + fid),
                                     dst=host_name(0, 0),
                                     size_bytes=4e4, start_s=0.0))
            env.run()
        finally:
            obs.disable()
        names = set(session.registry.snapshot()["metrics"])
        assert "flowsim.escalations" in names
        assert "flowsim.fct_s" in names
        chrome = session.tracer.to_chrome()
        tracks = {event["args"]["name"] for event in chrome["traceEvents"]
                  if event["ph"] == "M" and event["name"] == "thread_name"}
        assert {"flowsim/escalations", "flowsim/active_flows"} <= tracks
        spans = [event for event in chrome["traceEvents"]
                 if event["ph"] == "X"
                 and event["name"].startswith("escalated:")]
        assert spans and all(event["dur"] > 0 for event in spans)

    def test_reference_runs_do_not_pollute_active_trace(self):
        """Packet reference microsims run with obs suppressed: their
        internal time-zero timelines must not splice into the trace."""
        reset_reference_caches()
        session = obs.enable(scope="test")
        try:
            before = len(session.tracer.export()["events"])
            packet_fan_in(2, 20_000)
            after = len(session.tracer.export()["events"])
        finally:
            obs.disable()
        assert before == after


# ---------------------------------------------------------------------------
# Packet references
# ---------------------------------------------------------------------------


class TestPacketReferences:
    def test_pair_fct_close_to_serialisation_time(self):
        result = packet_pair(100_000, bandwidth_bps=100e9,
                             propagation_s=1e-6)
        wire = 100_000 * 8 / (100e9 * wire_efficiency())
        # FCT = serialisation + 2 hops of propagation + pipeline fill
        # (one extra frame per store-and-forward stage).
        assert wire < result.mean_fct_s < wire + 3e-6

    def test_fan_in_degrades_per_flow_fct(self):
        lone = packet_pair(20_000, bandwidth_bps=100e9)
        crowd = packet_fan_in(8, 20_000, bandwidth_bps=100e9)
        assert crowd.mean_fct_s > 3 * lone.mean_fct_s
        # Aggregate goodput still approaches the bottleneck capacity.
        assert crowd.aggregate_goodput_bps > 0.5 * 100e9

    def test_reference_results_are_cached_and_deterministic(self):
        reset_reference_caches()
        first = packet_fan_in(4, 20_000)
        assert packet_fan_in(4, 20_000) is first  # lru hit
        reset_reference_caches()
        again = packet_fan_in(4, 20_000)
        assert again == first and again is not first


# ---------------------------------------------------------------------------
# Scenario + calibration
# ---------------------------------------------------------------------------


class TestScenario:
    def test_generate_flows_is_seed_deterministic(self):
        config = ScenarioConfig(num_flows=200)
        flows_a = generate_flows(Environment(seed=5), config)
        flows_b = generate_flows(Environment(seed=5), config)
        flows_c = generate_flows(Environment(seed=6), config)
        assert flows_a == flows_b
        assert flows_a != flows_c
        assert len(flows_a) == 200

    def test_run_scenario_completes_all_flows(self):
        result = run_scenario(ScenarioConfig(num_flows=300))
        assert result.summary["flows"] == 300
        assert result.simulated_payload_bytes > 0
        assert result.sim_seconds > 0
        # The canonical scenario exercises every escalation reason.
        assert set(result.escalations) == {"incast", "straggler",
                                           "pfe-hash"}

    def test_find_path_routes_across_leaves(self):
        env = Environment()
        topology = build_leaf_spine(env, ScenarioConfig())
        same_leaf = topology.find_path(host_name(0, 0), host_name(0, 1))
        cross_leaf = topology.find_path(host_name(0, 0), host_name(1, 0))
        assert len(same_leaf) == 2       # host -> leaf -> host
        assert len(cross_leaf) == 4      # host -> leaf -> spine -> leaf -> host
        with pytest.raises(ValueError, match="unknown node"):
            topology.find_path("nope", host_name(0, 0))

    def test_find_path_memo_matches_fresh_topology(self):
        """Every host pair's path from the per-source BFS memo equals
        the one a freshly built topology returns for that pair alone,
        and the one a search stopping at ``dst`` finds."""
        config = ScenarioConfig(leaves=3, hosts_per_leaf=3)
        memoised = build_leaf_spine(Environment(), config)
        names = list(memoised.hosts)

        def hop_names(path):
            return [(link.ports[0].name, link.ports[1].name, port.name)
                    for link, port in path]

        for src in names:
            for dst in names:
                fresh = build_leaf_spine(Environment(), config)
                path = hop_names(memoised.find_path(src, dst))
                assert path == hop_names(fresh.find_path(src, dst))
                assert path == hop_names(_early_exit_path(fresh, src, dst))

    def test_find_path_memo_invalidated_by_mutation(self):
        """connect, register_port and add_host each drop the memoised
        BFS trees: a path cached before the change reflects it after."""
        from repro.net import Host, IPv4Address, MACAddress, Port

        src, dst = host_name(0, 0), host_name(1, 0)
        config = ScenarioConfig(leaves=2, hosts_per_leaf=2)

        # connect: a leaf0 <-> leaf1 shortcut skips the spine.
        env = Environment()
        topology = build_leaf_spine(env, config)
        a, b = Port(env, "short-a"), Port(env, "short-b")
        topology.register_port(a, "leaf0")
        topology.register_port(b, "leaf1")
        assert len(topology.find_path(src, dst)) == 4
        topology.connect(a, b)
        assert len(topology.find_path(src, dst)) == 3

        # register_port: the shortcut counts once both ends are owned.
        env = Environment()
        topology = build_leaf_spine(env, config)
        a, b = Port(env, "short-a"), Port(env, "short-b")
        topology.register_port(a, "leaf0")
        topology.connect(a, b)
        assert len(topology.find_path(src, dst)) == 4
        topology.register_port(b, "leaf1")
        assert len(topology.find_path(src, dst)) == 3

        # add_host: a host wired before it was added becomes reachable.
        env = Environment()
        topology = build_leaf_spine(env, config)
        late = Host(env, "late", MACAddress(0x02_00_00_00_09_01),
                    IPv4Address("10.9.0.1"))
        down = Port(env, "leaf0:late")
        topology.register_port(down, "leaf0")
        topology.connect(late.nic.port, down)
        assert len(topology.find_path(src, dst)) == 4
        topology.add_host(late)
        assert len(topology.find_path(src, "late")) == 2


def _early_exit_path(topology, src, dst):
    """Breadth-first search from ``src`` that stops on reaching ``dst``,
    over the links in insertion order: the path ``find_path`` must give."""
    owner = topology.port_owner
    came_from = {src: None}
    frontier = [src]
    while frontier and dst not in came_from:
        next_frontier = []
        for node in frontier:
            for link in topology.links:
                for tx, rx in (link.ports, link.ports[::-1]):
                    peer = owner(rx)
                    if (owner(tx) == node and peer is not None
                            and peer not in came_from):
                        came_from[peer] = (node, (link, tx))
                        next_frontier.append(peer)
        frontier = next_frontier
    path = []
    cursor = dst
    while cursor != src:
        cursor, hop = came_from[cursor]
        path.append(hop)
    return path[::-1]


class TestCalibration:
    def test_all_cases_within_band(self):
        cases = calibrate(FlowCalibrationSpec())
        assert set(cases) == {"pair", "shared", "incast"}
        for case in cases.values():
            assert case.within_band, (
                f"{case.case}: fluid {case.fluid_value:.4g} vs packet "
                f"{case.packet_value:.4g} ({case.ratio:.2f}x) outside "
                f"[{1 / case.band:.2f}x, {case.band:.2f}x]"
            )

    def test_cli_werror_passes(self, capsys):
        from repro.flowsim.calibrate import main

        assert main(["--werror"]) == 0
        out = capsys.readouterr().out
        assert "all cases within the calibration band" in out
