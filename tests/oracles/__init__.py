"""The scalar oracles behind the product's steppers, for differential
tests: what ``repro.cpu.make_stepper`` builds from the fast engines,
built from the row-by-row models of :mod:`oracles.base`,
:mod:`oracles.static` and :mod:`oracles.ds` instead, plus drivers that
answer both sides identically.  :mod:`oracles.coherence` is the
scanning coherence controller, the oracle of the per-line sharer masks
of :class:`repro.mem.CoherentMemorySystem`.  Imports run one way only:
the oracles use the product's write buffer, ``DSConfig``, opcode tables
and caches; nothing under ``src/`` imports this package."""

from __future__ import annotations

from repro.consistency import get_model
from repro.cosim import CosimEngine, CosimNode
from repro.cosim.engine import PENDING
from repro.cosim.run import _publish
from repro.cpu import MemRequest, ProcessorConfig, ReleaseNotify, SyncRequest
from repro.net import build_network

from .base import base_stepper, simulate_base
from .ds import DSProcessor, simulate_ds
from .static import simulate_ss, simulate_ssbr, ss_stepper, ssbr_stepper


def reference_stepper(
    trace,
    config: ProcessorConfig,
    coupled: bool = False,
    live_sync: bool = False,
    probe=None,
):
    """The scalar oracle of ``make_stepper(trace, config, ...)``."""
    kind = config.kind.lower()
    label = config.label()
    if kind == "base":
        return base_stepper(trace, label=label, clamp_time=coupled)
    if kind == "ssbr" or kind == "ss":
        stepper = ssbr_stepper if kind == "ssbr" else ss_stepper
        return stepper(
            trace, get_model(config.model), label=label,
            clamp_time=coupled, probe=probe,
        )
    if kind != "ds":
        raise ValueError(f"unknown processor kind {config.kind!r}")
    return DSProcessor(
        trace, get_model(config.model), config.ds_config(), probe=probe
    ).steps(label=label, live_sync=live_sync)


def reference_node(
    trace, config, has_network=False, live_sync=False, probe=None
) -> CosimNode:
    """The oracle twin of ``repro.cosim.build_node``."""
    is_ds = config.kind.lower() == "ds"
    stepper = reference_stepper(
        trace, config, coupled=has_network or is_ds,
        live_sync=live_sync, probe=probe,
    )
    return CosimNode(
        stepper, label=config.label(),
        parkable=not (is_ds and live_sync),
    )


def reference_cosim(
    crun, config, network_kind="ideal", line_size=4, sync_mode="replay",
    probe=None,
):
    """``repro.cosim.run_cosim`` with every node an oracle."""
    nodes = [
        reference_node(
            trace, config, has_network=network_kind != "ideal",
            live_sync=sync_mode == "live", probe=probe,
        )
        for trace in crun.traces
    ]
    network = build_network(network_kind, len(nodes), line_size)
    if network is not None and probe is not None:
        network.attach_probe(probe)
    result = CosimEngine(
        nodes, network=network, schedule=crun.schedule,
        sync_mode=sync_mode, probe=probe,
    ).run()
    result.network_kind = network_kind
    if probe is not None and probe.enabled:
        _publish(probe, result, network)
    return result


def _mix(*values: int) -> int:
    h = 0x9E3779B9
    for v in values:
        h = (h * 1000003 ^ (v & 0xFFFFFFFF)) & 0xFFFFFFFF
    return h


def live_answer(cpu: int, ordinal: int, query: int, pending_ok: bool) -> int:
    """A seeded live wait for the ``query``-th ask of one sync operation:
    zero, a positive wait or — where the model re-queries — a run of
    ``PENDING`` before either."""
    if pending_ok and query < _mix(cpu, ordinal, 7) % 4:
        return PENDING
    h = _mix(cpu, ordinal, 1)
    return 0 if h % 3 == 0 else 1 + h % 23


def _scattered_latency(req) -> int:
    return 1 + (7 * req.addr + 13 * req.time) % 97


def record(
    stepper, live: bool = False, pending_ok: bool = False,
    miss_answer=_scattered_latency,
):
    """Drive ``stepper`` to completion and log every request it makes.

    Misses are answered with ``miss_answer(request)``, by default a
    state-free function of (addr, time); sync operations with the
    trace's baked wait, or under ``live`` with :func:`live_answer`.
    Returns ``(requests, breakdown)`` — each request as a tuple of its
    class name and every field.
    """
    requests = []
    queries: dict[tuple[int, int], int] = {}
    try:
        req = next(stepper)
        while True:
            kind = type(req)
            requests.append(
                (kind.__name__,)
                + tuple(getattr(req, name) for name in kind.__slots__)
            )
            if kind is MemRequest:
                answer = miss_answer(req)
            elif kind is SyncRequest:
                if live:
                    key = (req.cpu, req.ordinal)
                    query = queries.get(key, 0)
                    queries[key] = query + 1
                    answer = live_answer(
                        req.cpu, req.ordinal, query, pending_ok
                    )
                else:
                    answer = req.wait
            else:
                assert kind is ReleaseNotify
                answer = None
            req = stepper.send(answer)
    except StopIteration as stop:
        return requests, stop.value
