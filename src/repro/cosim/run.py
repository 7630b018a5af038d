"""High-level co-simulation entry points.

:func:`build_node` wraps one (trace, processor-config) pair's stepper —
:func:`repro.cpu.make_stepper` picks the implementation — as a node of
the fabric; :func:`run_cosim` co-simulates a whole :class:`CosimRun`
(every processor of the application on one shared fabric);
:func:`replay_solo` puts a *single* processor alone on a fresh fabric —
the "solo" column between the fixed penalty and the shared fabric.
"""

from __future__ import annotations

from ..cpu import ProcessorConfig, make_stepper, simulate
from ..net import build_network
from .engine import CosimEngine, CosimNode, CosimResult


def build_node(
    trace,
    config: ProcessorConfig,
    has_network: bool = False,
    live_sync: bool = False,
    probe=None,
) -> CosimNode:
    """Wrap one processor model around ``trace`` as a cosim node.

    Replayed or live sync, the node runs the same stepper: every model
    suspends at its sync operations, and the engine decides the answer.
    """
    is_ds = config.kind.lower() == "ds"
    stepper = make_stepper(
        trace, config,
        # The static models clamp their clock only under a stateful
        # fabric (on the ideal one cosim must equal standalone, negative
        # waits included); the DS engine shares the probe's span budget
        # with this engine's per-miss spans on any fabric.
        coupled=has_network or is_ds,
        live_sync=live_sync, probe=probe,
    )
    # A parked DS stepper cannot drain its store buffer, so the engine
    # must answer PENDING instead of suspending it.
    return CosimNode(
        stepper, label=config.label(),
        parkable=not (is_ds and live_sync),
    )


def run_cosim(
    crun,
    config: ProcessorConfig,
    network_kind: str = "ideal",
    line_size: int = 4,
    sync_mode: str = "replay",
    probe=None,
) -> CosimResult:
    """Co-simulate every processor of ``crun`` on one shared fabric.

    ``crun`` is a :class:`repro.experiments.runner.CosimRun` (all
    per-cpu traces plus the recorded sync schedule).  Every processor
    is one node, built in ``crun.traces`` order, so a node's index is
    its cpu id and its source node on the fabric.
    """
    live = sync_mode == "live"
    nodes = [
        build_node(
            trace, config,
            has_network=network_kind != "ideal",
            live_sync=live, probe=probe,
        )
        for trace in crun.traces
    ]
    network = build_network(network_kind, len(nodes), line_size)
    if network is not None and probe is not None:
        network.attach_probe(probe)
    engine = CosimEngine(
        nodes, network=network, schedule=crun.schedule,
        sync_mode=sync_mode, probe=probe,
    )
    result = engine.run()
    result.network_kind = network_kind
    if probe is not None and probe.enabled:
        _publish(probe, result, network)
    return result


def _publish(probe, result: CosimResult, network) -> None:
    """Push per-processor and fabric statistics into the probe."""
    metrics = probe.metrics
    for idx, breakdown in enumerate(result.breakdowns):
        probe.publish_breakdown(breakdown)
        prefix = f"cosim.cpu{idx}"
        metrics.counter(f"{prefix}.cycles").inc(breakdown.total)
        miss = result.node_miss_summary(idx)
        metrics.counter(f"{prefix}.misses").inc(miss["count"])
        metrics.gauge(f"{prefix}.miss_mean").set(miss["mean"])
        metrics.gauge(f"{prefix}.miss_p99").set(miss["p99"])
    if network is not None:
        network.publish(metrics, prefix="cosim.net")


def replay_solo(
    trace,
    config: ProcessorConfig,
    network_kind: str,
    n_nodes: int,
    line_size: int,
    probe=None,
):
    """One processor alone on a fresh fabric.

    The same stepper and network as :func:`run_cosim`, but with a single
    node, so queueing reflects only this processor's own overlapped
    misses.  Returns ``(breakdown, network)`` — ``network`` is None
    under ``"ideal"``.
    """
    network = build_network(network_kind, n_nodes, line_size)
    if network is not None and probe is not None:
        network.attach_probe(probe)
    return simulate(trace, config, network=network, probe=probe), network
