"""Fault injection for the supervised pool — prove the supervisor works.

A :class:`ChaosSpec` rides into every worker process and fires *inside*
the worker at well-defined points, so the failures it produces are the
real thing, not mocks: ``crash`` delivers an actual ``SIGKILL`` to the
worker's own pid, ``hang`` really sleeps past the supervisor's wall
clock budget, ``corrupt`` flips bytes of the pickled result payload
*after* its checksum was computed, and ``fail`` raises a plain
exception.  Each injector is keyed by job index and bounded by attempt
count, which covers both transient faults (``{idx: 1}`` — fail the
first attempt, succeed on retry) and deterministic ones
(``{idx: ALWAYS}`` — fail every attempt until the job is quarantined).

The module also hosts the small picklable job functions the tests and
the CI smoke drive through the pool.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

#: Attempt bound meaning "every attempt" (far above any max_attempts).
ALWAYS = 1_000_000

#: How long an injected hang sleeps (seconds).
HANG_SECONDS = 3600.0


class ChaosTransientError(RuntimeError):
    """The exception the ``fail`` injector raises inside a worker."""


@dataclass
class ChaosSpec:
    """Which jobs to sabotage, and for how many attempts.

    Every mapping is ``{job_index: n}``: the fault fires while the
    job's attempt number (1-based) is ``<= n``.  An injected hang
    sleeps ``HANG_SECONDS``: bounded, so a run without timeouts still
    ends.
    """

    crash: dict[int, int] = field(default_factory=dict)
    hang: dict[int, int] = field(default_factory=dict)
    corrupt: dict[int, int] = field(default_factory=dict)
    fail: dict[int, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.crash or self.hang or self.corrupt or self.fail)

    def before(self, index: int, attempt: int) -> None:
        """Fire pre-execution faults (crash / hang / transient raise)."""
        if attempt <= self.crash.get(index, 0):
            os.kill(os.getpid(), signal.SIGKILL)
        if attempt <= self.hang.get(index, 0):
            time.sleep(HANG_SECONDS)
        if attempt <= self.fail.get(index, 0):
            raise ChaosTransientError(
                f"injected transient failure (job {index}, "
                f"attempt {attempt})"
            )

    def after(self, index: int, attempt: int, payload: bytes) -> bytes:
        """Fire post-execution faults (payload corruption)."""
        if attempt <= self.corrupt.get(index, 0):
            # Flip a byte in the middle: the checksum was computed over
            # the pristine payload, so the supervisor must reject this.
            mid = len(payload) // 2
            mutated = bytearray(payload)
            mutated[mid] ^= 0xFF
            return bytes(mutated)
        return payload


def parse_chaos_arg(mapping: dict[int, int], spec: str) -> dict[int, int]:
    """Parse one ``IDX[:N]`` CLI chaos argument into ``mapping``.

    ``"3"`` means "fault job 3 on every attempt"; ``"3:1"`` means
    "fault job 3 on its first attempt only".
    """
    idx, _, bound = spec.partition(":")
    try:
        index = int(idx)
        count = int(bound) if bound else ALWAYS
    except ValueError:
        raise ValueError(f"bad chaos spec {spec!r}: expected IDX[:N]")
    if index < 0 or count < 0:
        raise ValueError(f"bad chaos spec {spec!r}: negative values")
    mapping[index] = count
    return mapping


# --- Picklable job functions for tests and smoke runs ------------------


def echo_job(value):
    """Return the argument unchanged (the minimal pool job)."""
    return value


def square_job(value: int) -> int:
    return value * value


def sleep_job(seconds: float, value=None):
    """Sleep, then return ``value`` — a controllable slow job."""
    time.sleep(seconds)
    return value
