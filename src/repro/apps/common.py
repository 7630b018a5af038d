"""Shared scaffolding for the five benchmark applications.

Every application module exposes a ``build(...)`` function returning a
:class:`Workload`: the per-thread programs, the pre-initialised shared
memory, and a verifier that checks the *functional* result of the parallel
execution against an independent pure-Python reference.  The verifier is
what makes the applications trustworthy workloads rather than synthetic
instruction soup: LU really decomposes its matrix, OCEAN really relaxes
its grid, PTHOR really settles its circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..isa import Program
from ..mem import SegmentAllocator, SharedMemory


@dataclass
class Workload:
    """A ready-to-run parallel application.

    Attributes:
        name: application name ("mp3d", "lu", ...).
        programs: one sealed program per processor.
        memory: shared memory pre-initialised with the input data.
        layout: the segment allocator used to lay out shared data (kept so
            verifiers and tests can find structures by name).
        verify: callable taking the post-run :class:`SharedMemory`;
            raises ``AssertionError`` on functional mismatch.
        params: the scale parameters the workload was built with.
    """

    name: str
    programs: list[Program]
    memory: SharedMemory
    layout: SegmentAllocator
    verify: Callable[[SharedMemory], None]
    params: dict = field(default_factory=dict)

    @property
    def n_procs(self) -> int:
        return len(self.programs)

    def static_instructions(self) -> int:
        return sum(len(p) for p in self.programs)
