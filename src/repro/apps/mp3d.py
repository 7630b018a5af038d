"""MP3D — rarefied-flow particle simulator (paper §3.3).

Models the computational structure of MP3D: over a sequence of timesteps,
each processor moves its statically assigned block of particles through a
3-D space array.  Per particle and step:

* position advances along the velocity vector;
* collisions with the six walls of the wind tunnel reflect the velocity;
* collisions with a rectangular object in the flow reflect the particle;
* the particle's space-array cell counter is incremented — these
  unprotected read-modify-writes on the *shared* space array are MP3D's
  signature: particles owned by different processors land in the same
  cells, so both the reads and the writes miss heavily (the paper measures
  24.3 read misses and 22.5 write misses per 1000 instructions — by far
  the worst locality of the five applications).

A lock-protected global counter accumulates per-processor move counts once
per step (the paper reports 40 locks / 30 barriers for 5 steps), and a
barrier separates timesteps.

The per-particle dynamics are exactly reproducible in the pure-Python
reference (each particle is touched only by its owner); the racy space
array is checked with order-independent invariants, matching the original
MP3D's famously unsynchronized cell updates.
"""

from __future__ import annotations

import numpy as np

from ..asm import AsmBuilder
from ..isa import Program
from ..mem import SegmentAllocator, SharedMemory
from .common import Workload

_PARTICLE_BYTES = 48  # x, y, z, vx, vy, vz -- six doubles, three lines
_CELL_BYTES = 16      # count, reservoir pointer, 2 pad words -- one line


def _reference_particles(pos, vel, steps, dims, obstacle):
    """Replay particle dynamics with the asm kernels' operation order."""
    pos = pos.copy()
    vel = vel.copy()
    ox0, ox1, oy0, oy1, oz0, oz1 = obstacle
    # Particles never interact, so each step runs over all of them at
    # once; per element it is the same IEEE operations in the same order.
    for _ in range(steps):
        pos += vel
        for axis, limit in enumerate(dims):
            p, v = pos[:, axis], vel[:, axis]
            low = p < 0.0
            high = p > limit
            p[low] = -p[low]
            p[high] = 2.0 * limit - p[high]
            bounced = low | high
            v[bounced] = -v[bounced]
        x, y, z = pos[:, 0], pos[:, 1], pos[:, 2]
        inside = (
            (ox0 < x)
            & (x < ox1)
            & (oy0 < y)
            & (y < oy1)
            & (oz0 < z)
            & (z < oz1)
        )
        vel[inside] = -vel[inside]
    return pos, vel


def _thread_program(
    me: int,
    n_procs: int,
    n_particles: int,
    steps: int,
    grid: tuple[int, int, int],
    obstacle: tuple[float, ...],
    bases: dict[str, int],
) -> Program:
    b = AsmBuilder(f"mp3d.t{me}")
    nx, ny, nz = grid
    dims = (float(nx), float(ny), float(nz))
    ox0, ox1, oy0, oy1, oz0, oz1 = obstacle

    per_proc = n_particles // n_procs
    first = me * per_proc
    last = first + per_proc if me < n_procs - 1 else n_particles

    r_part = b.ireg("particles")
    r_cells = b.ireg("cells")
    r_bar = b.ireg("bar")
    r_lockaddr = b.ireg("lock")
    b.li(r_part, bases["particles"])
    b.li(r_cells, bases["cells"])
    b.li(r_lockaddr, bases["global"])  # the lock guards the word after it

    # Floating point constants: wall limits, their doubled values, and the
    # obstacle bounds.
    f_zero = b.freg("zero")
    b.fli(f_zero, 0.0)
    f_lim = [b.freg(f"lim{i}") for i in range(3)]
    f_2lim = [b.freg(f"2lim{i}") for i in range(3)]
    for axis in range(3):
        b.fli(f_lim[axis], dims[axis])
        b.fli(f_2lim[axis], 2.0 * dims[axis])
    f_ob_lo = [b.freg(f"ob_lo{i}") for i in range(3)]
    f_ob_hi = [b.freg(f"ob_hi{i}") for i in range(3)]
    for axis, (lo, hi) in enumerate(((ox0, ox1), (oy0, oy1), (oz0, oz1))):
        b.fli(f_ob_lo[axis], lo)
        b.fli(f_ob_hi[axis], hi)

    b.li(r_bar, bases["barriers"])
    b.barrier(r_bar)

    step = b.ireg("step")
    pid = b.ireg("pid")
    local = b.ireg("local")
    f_pos = [b.freg(f"pos{i}") for i in range(3)]
    f_vel = [b.freg(f"vel{i}") for i in range(3)]

    with b.for_range(step, 0, steps):
        b.li(local, 0)
        with b.for_range(pid, first, last):
            with b.itemps(1) as p_rec:
                b.muli(p_rec, pid, _PARTICLE_BYTES)
                b.add(p_rec, p_rec, r_part)
                for axis in range(3):
                    b.fld(f_pos[axis], p_rec, axis * 8)
                    b.fld(f_vel[axis], p_rec, 24 + axis * 8)

                # Advance along the velocity vector (dt == 1).
                for axis in range(3):
                    b.fadd(f_pos[axis], f_pos[axis], f_vel[axis])

                # Reflect at the six walls.
                for axis in range(3):
                    past_low = b.newlabel("wlo")
                    done = b.newlabel("wdone")
                    with b.itemps(1) as t:
                        b.flt(t, f_pos[axis], f_zero)
                        b.bnez(t, past_low)
                        b.flt(t, f_lim[axis], f_pos[axis])
                        b.beqz(t, done)
                        # pos > limit: fold back off the far wall.
                        b.fsub(f_pos[axis], f_2lim[axis], f_pos[axis])
                        b.fneg(f_vel[axis], f_vel[axis])
                        b.j(done)
                        b.label(past_low)
                        b.fneg(f_pos[axis], f_pos[axis])
                        b.fneg(f_vel[axis], f_vel[axis])
                        b.label(done)

                # Reflect off the rectangular object (all axes inside).
                miss_obj = b.newlabel("noobj")
                with b.itemps(1) as t:
                    for axis in range(3):
                        b.fle(t, f_pos[axis], f_ob_lo[axis])
                        b.bnez(t, miss_obj)
                        b.fle(t, f_ob_hi[axis], f_pos[axis])
                        b.bnez(t, miss_obj)
                for axis in range(3):
                    b.fneg(f_vel[axis], f_vel[axis])
                b.label(miss_obj)

                # Store the particle back.
                for axis in range(3):
                    b.fsd(f_pos[axis], p_rec, axis * 8)
                    b.fsd(f_vel[axis], p_rec, 24 + axis * 8)

                # Update the shared space-array cell (unprotected RMW,
                # as in the original MP3D), then chase the cell's
                # reservoir pointer and update the reservoir record too.
                # The reservoir load's address comes from a load off the
                # bouncing cell line, forming the dependent read-miss
                # chains the paper identifies in MP3D (§4.1.3: one read
                # miss determining the address of the next).
                with b.itemps(4) as (ix, iy, iz, t2):
                    b.cvtfi(ix, f_pos[0])
                    b.cvtfi(iy, f_pos[1])
                    b.cvtfi(iz, f_pos[2])
                    # Clamp indices into [0, n) -- pos == limit maps out.
                    for idx, bound in ((ix, nx), (iy, ny), (iz, nz)):
                        with b.itemps(1) as t:
                            b.li(t, bound - 1)
                            b.slti(t2, idx, bound)
                            with b.if_cmp("eq", t2, b.zero):
                                b.mov(idx, t)
                    b.muli(t2, ix, ny)
                    b.add(t2, t2, iy)
                    b.muli(t2, t2, nz)
                    b.add(t2, t2, iz)
                    b.muli(t2, t2, _CELL_BYTES)
                    b.add(t2, t2, r_cells)
                    with b.itemps(2) as (p, c):
                        b.lw(p, t2, 4)       # reservoir pointer
                        b.lw(c, t2, 0)       # cell population count
                        b.addi(c, c, 1)
                        b.sw(c, t2, 0)
                        b.lw(c, p, 0)        # dependent reservoir access
                        b.addi(c, c, 1)
                        b.sw(c, p, 0)
                b.addi(local, local, 1)

        # Fold the per-step count into the lock-protected global counter.
        b.lock(r_lockaddr)
        with b.itemps(1) as g:
            b.lw(g, r_lockaddr, 4)
            b.add(g, g, local)
            b.sw(g, r_lockaddr, 4)
        b.unlock(r_lockaddr)
        b.li(r_bar, bases["barriers"] + 4)
        b.barrier(r_bar)

    b.halt()
    return b.build()


def build(
    n_procs: int = 16,
    n_particles: int = 1600,
    steps: int = 5,
    grid: tuple[int, int, int] = (16, 8, 8),
    seed: int = 7,
) -> Workload:
    """Build the MP3D workload.

    Args:
        n_procs: number of processors.
        n_particles: particle count (the paper uses 10,000).
        steps: timesteps (the paper uses 5).
        grid: space-array dimensions (the paper uses 64x8x8).
        seed: RNG seed for initial positions/velocities.
    """
    nx, ny, nz = grid
    if n_particles < n_procs:
        raise ValueError("need at least one particle per processor")
    rng = np.random.default_rng(seed)
    dims = (float(nx), float(ny), float(nz))
    pos0 = rng.uniform(0.0, 1.0, size=(n_particles, 3)) * np.array(dims)
    vel0 = rng.uniform(-0.9, 0.9, size=(n_particles, 3))
    # A rectangular object sitting in the front third of the tunnel.
    obstacle = (
        nx * 0.3, nx * 0.45,
        ny * 0.25, ny * 0.75,
        nz * 0.25, nz * 0.75,
    )

    n_cells = nx * ny * nz
    layout = SegmentAllocator()
    bases = {
        "particles": layout.alloc("particles", n_particles * _PARTICLE_BYTES),
        "cells": layout.alloc("cells", n_cells * _CELL_BYTES),
        "reservoirs": layout.alloc_words("reservoirs", n_cells),
        "global": layout.alloc_words("global", 4),
        "barriers": layout.alloc_words("barriers", 2),
    }

    memory = SharedMemory()
    for p in range(n_particles):
        rec = bases["particles"] + p * _PARTICLE_BYTES
        for axis in range(3):
            memory.write_double(rec + axis * 8, float(pos0[p, axis]))
            memory.write_double(rec + 24 + axis * 8, float(vel0[p, axis]))
    # Each cell points at its reservoir record; the pointers are shuffled
    # so a reservoir address is only known by loading it.
    resv_perm = rng.permutation(n_cells)
    for cell in range(n_cells):
        memory.write_word(
            bases["cells"] + cell * _CELL_BYTES + 4,
            bases["reservoirs"] + int(resv_perm[cell]) * 4,
        )

    programs = [
        _thread_program(
            me, n_procs, n_particles, steps, grid, obstacle, bases
        )
        for me in range(n_procs)
    ]

    exp_pos, exp_vel = _reference_particles(
        pos0, vel0, steps, dims, obstacle
    )

    def verify(mem: SharedMemory) -> None:
        for p in range(n_particles):
            rec = bases["particles"] + p * _PARTICLE_BYTES
            for axis in range(3):
                got_pos = mem.read_double(rec + axis * 8)
                got_vel = mem.read_double(rec + 24 + axis * 8)
                if got_pos != exp_pos[p, axis] or got_vel != exp_vel[p, axis]:
                    raise AssertionError(
                        f"MP3D particle {p} axis {axis} mismatch: "
                        f"pos {got_pos} vs {exp_pos[p, axis]}, "
                        f"vel {got_vel} vs {exp_vel[p, axis]}"
                    )
        # The lock-protected global counter is exact.
        total_moves = mem.read_word(bases["global"] + 4)
        expected_moves = n_particles * steps
        if total_moves != expected_moves:
            raise AssertionError(
                f"MP3D move counter {total_moves} != {expected_moves} "
                f"(lock-protected accumulation lost updates)"
            )
        # The racy space array and its reservoirs may lose updates (as
        # the original MP3D does); they must never exceed the true count
        # and should stay close to it.
        for name, stride, offset in (
            ("cells", _CELL_BYTES, 0), ("reservoirs", 4, 0),
        ):
            total = sum(
                mem.read_word(bases[name] + i * stride + offset)
                for i in range(nx * ny * nz)
            )
            if total > expected_moves:
                raise AssertionError(
                    f"MP3D {name} counters overcounted: {total} > "
                    f"{expected_moves}"
                )
            if total < expected_moves * 0.9:
                raise AssertionError(
                    f"MP3D {name} counters lost too many updates: "
                    f"{total} << {expected_moves}"
                )

    return Workload(
        name="mp3d",
        programs=programs,
        memory=memory,
        layout=layout,
        verify=verify,
        params={
            "n_procs": n_procs,
            "n_particles": n_particles,
            "steps": steps,
            "grid": grid,
            "seed": seed,
        },
    )
