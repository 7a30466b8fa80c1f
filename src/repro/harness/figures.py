"""Text renderers: print each experiment as the rows the paper reports."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.harness import experiments as exp

__all__ = [
    "render_backend_sweep",
    "render_chain_sweep",
    "render_table1",
    "render_fig12",
    "render_fig13",
    "render_fig14",
    "render_fig15",
    "render_fig16",
    "render_hybrid_sweep",
    "render_loss_recovery",
    "render_program_analysis",
    "render_traffic_sweep",
    "render_ablation",
    "render_generation_scaling",
    "to_csv",
    "fig13_to_csv",
    "fig15_to_csv",
    "fig16_to_csv",
]


def _rule(width: int = 72) -> str:
    return "-" * width


def render_table1(rows: List[Dict[str, object]]) -> str:
    lines = [
        "Table 1: DNN models used in the experiments",
        _rule(),
        f"{'Model':<14}{'Size':>8}{'Batch size/GPU':>18}{'Dataset':>12}",
    ]
    for row in rows:
        lines.append(
            f"{row['model']:<14}{row['size_mb']:>6} MB"
            f"{row['batch_size_per_gpu']:>18}{row['dataset']:>12}"
        )
    return "\n".join(lines)


def render_fig12(results: Dict[str, "exp.Fig12Result"]) -> str:
    lines = ["Figure 12: time-to-accuracy at straggling probability p=16%",
             _rule()]
    for result in results.values():
        lines.append(
            f"{result.model:<14} target {result.target_accuracy:.0f}% top-5: "
            f"Trio-ML {result.trioml_minutes:7.1f} min | "
            f"SwitchML {result.switchml_minutes:7.1f} min | "
            f"speedup {result.speedup:.2f}x"
        )
    return "\n".join(lines)


def render_fig13(results: Dict[str, List["exp.Fig13Row"]]) -> str:
    lines = ["Figure 13: training iteration time vs straggling probability",
             _rule()]
    for model, rows in results.items():
        lines.append(f"[{model}]")
        lines.append(
            f"{'p':>6}{'Ideal (ms)':>14}{'Trio-ML (ms)':>14}"
            f"{'SwitchML (ms)':>15}{'speedup':>10}"
        )
        for row in rows:
            lines.append(
                f"{row.probability * 100:>5.0f}%{row.ideal_ms:>14.1f}"
                f"{row.trioml_ms:>14.1f}{row.switchml_ms:>15.1f}"
                f"{row.speedup:>9.2f}x"
            )
    return "\n".join(lines)


def render_backend_sweep(rows: List["exp.BackendSweepRow"],
                         model: str = "resnet50") -> str:
    """One column per registered backend, one row per probability."""
    from repro.collectives import get_backend

    systems = list(rows[0].iteration_ms) if rows else []
    width = max(14, *(len(get_backend(s).display_name) + 2
                      for s in systems)) if systems else 14
    lines = [
        "Backend sweep: iteration time (ms) vs straggling probability "
        f"[{model}]",
        _rule(max(72, 6 + width * len(systems))),
        f"{'p':>6}" + "".join(
            f"{get_backend(s).display_name:>{width}}" for s in systems
        ),
    ]
    for row in rows:
        lines.append(
            f"{row.probability * 100:>5.0f}%" + "".join(
                f"{row.iteration_ms[s]:>{width}.1f}" for s in systems
            )
        )
    return "\n".join(lines)


def render_fig14(rows: List["exp.Fig14Row"]) -> str:
    lines = ["Figure 14: in-network timer threads' efficiency", _rule(),
             f"{'Timeout (ms)':>14}{'Mean mitigation (ms)':>22}"
             f"{'Max (ms)':>10}{'Blocks':>8}"]
    for row in rows:
        lines.append(
            f"{row.timeout_ms:>14.1f}{row.mean_mitigation_ms:>22.2f}"
            f"{row.max_mitigation_ms:>10.2f}{row.blocks_mitigated:>8}"
        )
    return "\n".join(lines)


def render_fig15(rows: List["exp.Fig15Row"]) -> str:
    lines = ["Figure 15: per-PFE aggregation latency and rate (window=1)",
             _rule(),
             f"{'Grads/packet':>13}{'Latency (us)':>14}"
             f"{'Rate (grad/us)':>16}"]
    for row in rows:
        lines.append(
            f"{row.grads_per_packet:>13}{row.latency_us:>14.2f}"
            f"{row.rate_grads_per_us:>16.2f}"
        )
    return "\n".join(lines)


def render_fig16(results: Dict[int, List["exp.Fig16Row"]]) -> str:
    lines = ["Figure 16: impact of window size on latency and throughput",
             _rule()]
    for grads, rows in sorted(results.items()):
        lines.append(f"[Trio-ML-{grads}]")
        lines.append(
            f"{'Window':>8}{'Latency (us)':>14}{'Throughput (Gbps)':>19}"
        )
        for row in rows:
            lines.append(
                f"{row.window:>8}{row.latency_us:>14.1f}"
                f"{row.throughput_gbps:>19.2f}"
            )
    return "\n".join(lines)


def render_program_analysis(analysis: "exp.ProgramAnalysis") -> str:
    return "\n".join([
        "Section 6.3: Trio-ML Microcode program analysis",
        _rule(),
        f"static program size:           ~{analysis.static_instructions} "
        "instructions",
        f"aggregation loop efficiency:    "
        f"{analysis.loop_instructions_per_gradient:.2f} instructions/gradient",
        f"measured (incl. overheads):     "
        f"{analysis.measured_instructions_per_gradient:.2f} "
        "instructions/gradient",
        f"read-modify-write engines:      {analysis.rmw_engines} "
        f"({analysis.rmw_add_cycles} cycles/add)",
        f"aggregate add rate:             "
        f"{analysis.rmw_add_rate_ops_per_s / 1e9:.1f} Gops/s per PFE",
    ])


def render_ablation(title: str, rows: Sequence["exp.AblationRow"]) -> str:
    lines = [title, _rule()]
    for row in rows:
        lines.append(f"{row.label:<46}{row.value:>14.2f} {row.unit}")
    return "\n".join(lines)


def render_generation_scaling(rows: Sequence["exp.GenerationRow"]) -> str:
    lines = [
        "Supplementary: the same aggregation job across Trio generations",
        _rule(),
        f"{'Gen':>4}{'Year':>6}{'PPEs':>6}{'RMW engines':>13}"
        f"{'Completion (ms)':>17}{'Throughput (Gbps)':>19}",
    ]
    for row in rows:
        lines.append(
            f"{row.generation:>4}{row.year:>6}{row.num_ppes:>6}"
            f"{row.rmw_engines:>13}{row.completion_ms:>17.3f}"
            f"{row.throughput_gbps:>19.2f}"
        )
    return "\n".join(lines)


def render_hybrid_sweep(rows: Sequence["exp.HybridRow"]) -> str:
    lines = [
        "Hybrid flow/packet simulation: FCT and escalations vs offered load",
        _rule(88),
        f"{'Load':>6}{'Flows':>7}{'Mean FCT (ms)':>15}{'p99 (ms)':>10}"
        f"{'Goodput (Gbps)':>16}{'Sim (GB)':>10}{'Solves':>8}"
        f"{'Escalated':>11}",
    ]
    for row in rows:
        detail = ", ".join(f"{reason} {count}"
                           for reason, count in row.escalations.items())
        lines.append(
            f"{row.load * 100:>5.0f}%{row.flows:>7}{row.mean_fct_ms:>15.3f}"
            f"{row.p99_fct_ms:>10.2f}{row.mean_goodput_gbps:>16.2f}"
            f"{row.simulated_gbytes:>10.2f}{row.solves:>8}"
            f"{row.escalated_total:>11}"
            + (f"  ({detail})" if detail else "")
        )
    return "\n".join(lines)


def render_traffic_sweep(rows: Sequence["exp.TrafficRow"],
                         chain: str = "firewall -> telemetry") -> str:
    """Every registered traffic scenario at both simulation levels.

    The fluid columns summarise the hybrid run; the packet columns the
    chain execution over the same scenario's wire stream (drops are the
    firewall's policers and blocklists doing their job on the DDoS and
    heavy-hitter mixes).
    """
    lines = [
        f"Traffic scenario sweep (fluid level + packet level vs {chain})",
        _rule(100),
        f"{'Scenario':<14}{'Flows':>8}{'Mean FCT (ms)':>15}{'p99 (ms)':>10}"
        f"{'Goodput (Gbps)':>16}{'Escalated':>11}{'Pkts':>7}{'Drop%':>7}",
    ]
    for row in rows:
        detail = ", ".join(f"{reason} {count}"
                           for reason, count in row.escalations.items())
        lines.append(
            f"{row.scenario:<14}{row.flows:>8}{row.mean_fct_ms:>15.3f}"
            f"{row.p99_fct_ms:>10.2f}{row.mean_goodput_gbps:>16.2f}"
            f"{row.escalated_total:>11}{row.chain_packets:>7}"
            f"{row.drop_fraction * 100:>6.1f}%"
            + (f"  ({detail})" if detail else "")
        )
    total_flows = sum(row.flows for row in rows)
    total_gbytes = sum(row.simulated_gbytes for row in rows)
    lines.append(_rule(100))
    lines.append(
        f"{len(rows)} scenario(s), {total_flows} flows, "
        f"{total_gbytes:.2f} GB simulated payload"
    )
    return "\n".join(lines)


def render_chain_sweep(rows: Sequence["exp.ChainRow"],
                       spec: str = "firewall -> telemetry -> aggregate"
                       ) -> str:
    """Every legal placement of the chain, cheapest first.

    The trailing line states the placement-invariance result: the sweep
    must report exactly one distinct fingerprint however the chain is
    split across Trio / PISA / host.
    """
    lines = [
        f"NF chain placement sweep: {spec}",
        _rule(90),
        f"{'Placement':<26}{'ns/pkt':>10}{'Mpps':>8}{'Cross':>7}"
        f"{'Fwd':>8}{'Drop':>8}{'Consume':>9}{'Fingerprint':>14}",
    ]
    for row in rows:
        marker = "*" if row.chosen else " "
        mpps = 1e3 / row.per_packet_ns if row.per_packet_ns > 0 else 0.0
        lines.append(
            f"{marker}{','.join(row.placement):<25}"
            f"{row.per_packet_ns:>10.1f}{mpps:>8.2f}{row.crossings:>7}"
            f"{row.forwarded:>8}{row.dropped:>8}{row.consumed:>9}"
            f"{row.fingerprint[:12]:>14}"
        )
    distinct = len({row.fingerprint for row in rows})
    lines.append(_rule(90))
    lines.append(
        f"{len(rows)} legal placement(s), {distinct} distinct result "
        "fingerprint(s); * = greedy cost-driven choice"
    )
    return "\n".join(lines)


def render_loss_recovery(rows: Sequence["exp.LossRow"]) -> str:
    lines = [
        "Supplementary: allreduce under packet loss with §7 resiliency",
        _rule(),
        f"{'Loss rate':>10}{'Completion (ms)':>17}{'Frames lost':>13}"
        f"{'Retransmits':>13}{'Replays':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row.loss_rate * 100:>9.1f}%{row.completion_ms:>17.3f}"
            f"{row.frames_lost:>13}{row.retransmissions:>13}"
            f"{row.results_replayed:>9}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CSV export (for external plotting)
# ---------------------------------------------------------------------------


def to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Minimal CSV rendering (no quoting needed for our numeric data)."""
    lines = [",".join(str(h) for h in headers)]
    for row in rows:
        lines.append(",".join(str(cell) for cell in row))
    return "\n".join(lines) + "\n"


def fig13_to_csv(results: Dict[str, List["exp.Fig13Row"]]) -> str:
    rows = []
    for model, model_rows in results.items():
        for row in model_rows:
            rows.append((model, row.probability, row.ideal_ms,
                         row.trioml_ms, row.switchml_ms))
    return to_csv(
        ("model", "probability", "ideal_ms", "trioml_ms", "switchml_ms"),
        rows,
    )


def fig15_to_csv(rows: List["exp.Fig15Row"]) -> str:
    return to_csv(
        ("grads_per_packet", "latency_us", "rate_grads_per_us"),
        [(r.grads_per_packet, r.latency_us, r.rate_grads_per_us)
         for r in rows],
    )


def fig16_to_csv(results: Dict[int, List["exp.Fig16Row"]]) -> str:
    rows = []
    for grads, grads_rows in sorted(results.items()):
        for row in grads_rows:
            rows.append((grads, row.window, row.latency_us,
                         row.throughput_gbps))
    return to_csv(
        ("grads_per_packet", "window", "latency_us", "throughput_gbps"),
        rows,
    )
