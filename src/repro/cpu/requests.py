"""The resumable-stepper protocol shared by every processor model.

Each CPU model of :mod:`repro.cpu.static_fast` and
:mod:`repro.cpu.ds.event_engine` (and each scalar test oracle) exposes
its timing loop as a *stepper*: a generator that runs
the model forward and suspends at every point where the outside world
owes it an answer, yielding a request object and receiving the answer
via ``send()``:

* :class:`MemRequest` — a cache miss is about to access memory at a
  known cycle.  The answer is the miss latency in cycles.  Standalone
  replay answers with ``network.replay_miss(...)`` (or the trace's baked
  stall when there is no network); the co-simulation engine
  (:mod:`repro.cosim`) serves it on the *shared* fabric, so concurrent
  misses from other processors queue ahead of it.
* :class:`SyncRequest` — an acquire-type operation (lock acquire,
  barrier) is ready to wait.  The answer is the wait in cycles.  Replay
  answers with the trace's baked wait; the co-simulation engine's live
  mode resolves it against the *other processors'* progress using the
  recorded synchronization schedule.
* :class:`ReleaseNotify` — a release-type operation (unlock, event set
  or clear) performed at the given cycle.  Informational: the answer is
  ``None``; the co-simulation engine uses it to resolve cross-processor
  wait edges.

The fast engines issue exactly the request sequence of their oracle —
every :class:`MemRequest`, :class:`SyncRequest` and
:class:`ReleaseNotify`, field for field, under replayed and live
answers (``tests/test_fastpath.py`` pins it).

A stepper terminates by returning its
:class:`~repro.cpu.results.ExecutionBreakdown` (surfaced as
``StopIteration.value``).  :func:`drive` replays a stepper to completion
standalone — it is the engine behind :func:`repro.cpu.simulate`, so the
stepper *is* the timing model, not a copy of it.
"""

from __future__ import annotations


class MemRequest:
    """A miss about to begin its memory access at cycle ``time``.

    ``stall`` is the trace's baked latency (the fixed-penalty answer);
    ``is_write`` distinguishes read misses from write/upgrade misses.
    Only issued for actual misses (``stall > 0``).
    """

    __slots__ = ("addr", "is_write", "time", "stall")

    def __init__(self, addr: int, is_write: bool, time: int,
                 stall: int) -> None:
        self.addr = addr
        self.is_write = is_write
        self.time = time
        self.stall = stall


class SyncRequest:
    """An acquire-type operation waiting at cycle ``time``.

    ``cpu`` is the trace's processor id and ``ordinal`` the operation's
    index among this processor's synchronization-class trace rows
    (acquire, release, barrier share one counter) — together they key
    the recorded :class:`~repro.sync.schedule.SyncSchedule`.  ``wait``
    is the baked wait (the replay answer); ``stall`` the sync-variable
    access latency, which stays with the caller.
    """

    __slots__ = ("cpu", "ordinal", "cls", "time", "wait", "stall", "addr")

    def __init__(self, cpu: int, ordinal: int, cls: int, time: int,
                 wait: int, stall: int, addr: int) -> None:
        self.cpu = cpu
        self.ordinal = ordinal
        self.cls = cls
        self.time = time
        self.wait = wait
        self.stall = stall
        self.addr = addr


class ReleaseNotify:
    """A release-type operation performed at cycle ``time`` (answer: None)."""

    __slots__ = ("cpu", "ordinal", "time", "addr")

    def __init__(self, cpu: int, ordinal: int, time: int,
                 addr: int) -> None:
        self.cpu = cpu
        self.ordinal = ordinal
        self.time = time
        self.addr = addr


def drive(stepper, network=None, cpu: int = 0):
    """Run a stepper to completion standalone; returns its breakdown.

    Memory requests are answered by ``network.replay_miss`` at the cycle
    the model issued them (the trace's baked stall when ``network`` is
    None); sync requests are answered with the trace's baked wait.
    """
    try:
        req = next(stepper)
        while True:
            kind = type(req)
            if kind is MemRequest:
                if network is not None:
                    ans = network.replay_miss(
                        cpu, req.addr, req.is_write, req.time
                    )
                else:
                    ans = req.stall
            elif kind is SyncRequest:
                ans = req.wait
            else:  # ReleaseNotify
                ans = None
            req = stepper.send(ans)
    except StopIteration as stop:
        return stop.value
