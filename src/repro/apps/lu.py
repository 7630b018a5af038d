"""LU — dense LU decomposition (paper §3.3).

Right-looking LU decomposition without pivoting on an ``n``-by-``n``
matrix of doubles.  As in the paper, columns are statically assigned to
processors in an interleaved fashion; each processor waits (via an ANL
event) for the current pivot column to be produced, then uses it to update
the columns it owns.  The processor that owns the pivot column scales it
and sets the column's event, releasing all waiters.

The matrix is stored column-major so a column is contiguous — the owner's
writes stay local while consumers' reads of the pivot column are
communication misses, which is exactly the sharing pattern the paper's LU
exhibits.  The paper ran 200x200; the default here is reduced for
pure-Python simulation speed and is configurable.

Synchronization: one event per column, plus one barrier before and one
after the factorization (the paper reports 2 barriers).
"""

from __future__ import annotations

import numpy as np

from ..asm import AsmBuilder
from ..isa import Program
from ..mem import SegmentAllocator, SharedMemory
from .common import Workload


def _reference_lu(a: np.ndarray) -> np.ndarray:
    """The factorization the parallel program must reproduce exactly.

    Mirrors the per-element operation order of the assembly kernels
    (scale column, then rank-1 update column by column), so the result is
    bit-identical to the simulated machine's.
    """
    a = a.copy()
    n = a.shape[0]
    for k in range(n - 1):
        # Within step k no element reads another one written in the same
        # step, so whole-column and whole-block updates round exactly as
        # the element loops do: one IEEE divide per element, then one
        # multiply and one subtract.
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.multiply.outer(a[k + 1 :, k], a[k, k + 1 :])
    return a


def _thread_program(
    me: int,
    n_procs: int,
    n: int,
    a_base: int,
    ev_base: int,
    bar_base: int,
) -> Program:
    """One processor's LU program, with pivot send-ahead.

    A column owner scales and publishes column ``k+1`` *immediately* after
    applying column ``k``'s update to it — before updating the rest of its
    columns — so consumers of the next pivot rarely wait.  This is the
    standard pipelined column-LU structure the paper's version uses.
    """
    b = AsmBuilder(f"lu.t{me}")

    r_a = b.ireg("A")
    r_n = b.ireg("n")
    r_p = b.ireg("P")
    r_me = b.ireg("me")
    r_ev = b.ireg("ev")
    b.li(r_a, a_base)
    b.li(r_n, n)
    b.li(r_p, n_procs)
    b.li(r_me, me)
    b.li(r_ev, ev_base)

    def scale_and_publish(col):
        """Scale column ``col`` below its diagonal and set its event."""
        with b.itemps(2) as (p, i), b.ftemps(2) as (f_piv, f_v):
            b.mul(p, col, r_n)
            b.add(p, p, col)
            b.muli(p, p, 8)
            b.add(p, p, r_a)               # &A[col,col]
            b.fld(f_piv, p, 0)
            b.addi(p, p, 8)                # &A[col+1,col]
            b.addi(i, col, 1)
            with b.while_cmp("lt", i, r_n):
                b.fld(f_v, p, 0)
                b.fdiv(f_v, f_v, f_piv)
                b.fsd(f_v, p, 0)
                b.addi(p, p, 8)
                b.addi(i, i, 1)
        with b.itemps(1) as t_ev:
            b.muli(t_ev, col, 4)
            b.add(t_ev, t_ev, r_ev)
            b.evset(t_ev)

    with b.itemps(1) as r_bar:
        b.li(r_bar, bar_base)
        b.barrier(r_bar)

    # The owner of column 0 publishes it before anyone loops.
    if me == 0 % n_procs:
        with b.itemps(1) as c0:
            b.li(c0, 0)
            scale_and_publish(c0)

    k = b.ireg("k")
    kp1 = b.ireg("kp1")
    with b.for_range(k, 0, r_n):
        b.addi(kp1, k, 1)
        # Wait for the pivot column (a no-op latency-wise for its owner,
        # who set the event itself).
        with b.itemps(1) as t_ev:
            b.muli(t_ev, k, 4)
            b.add(t_ev, t_ev, r_ev)
            b.evwait(t_ev)

        # Update owned columns j > k in increasing order; after updating
        # j == k+1 (necessarily its final update), scale and publish it.
        # j0 = k+1 + ((me - (k+1)) mod P), the first owned column past k.
        with b.itemps(2) as (j, t):
            b.sub(t, r_me, k)
            b.addi(t, t, -1)
            b.rem(t, t, r_p)
            b.add(t, t, r_p)
            b.rem(t, t, r_p)
            b.add(j, t, kp1)
            with b.while_cmp("lt", j, r_n):
                with (
                    b.itemps(4) as (t_jcol, t_k8, p, q),
                    b.ftemps(3) as (f_m, f_a, f_b),
                ):
                    b.mul(t_jcol, j, r_n)
                    b.muli(t_jcol, t_jcol, 8)
                    b.add(t_jcol, t_jcol, r_a)   # base of column j
                    b.muli(t_k8, k, 8)
                    b.add(p, t_jcol, t_k8)       # &A[k,j]
                    b.fld(f_m, p, 0)             # multiplier A[k,j]
                    b.addi(p, p, 8)              # &A[k+1,j]
                    b.mul(q, k, r_n)
                    b.muli(q, q, 8)
                    b.add(q, q, r_a)
                    b.add(q, q, t_k8)
                    b.addi(q, q, 8)              # &A[k+1,k]
                    with b.itemps(1) as i:
                        b.addi(i, k, 1)
                        with b.while_cmp("lt", i, r_n):
                            b.fld(f_a, p, 0)
                            b.fld(f_b, q, 0)
                            b.fmul(f_b, f_b, f_m)
                            b.fsub(f_a, f_a, f_b)
                            b.fsd(f_a, p, 0)
                            b.addi(p, p, 8)
                            b.addi(q, q, 8)
                            b.addi(i, i, 1)
                with b.if_cmp("eq", j, kp1):
                    scale_and_publish(kp1)
                b.add(j, j, r_p)

    with b.itemps(1) as r_bar:
        b.li(r_bar, bar_base + 4)
        b.barrier(r_bar)
    b.halt()
    return b.build()


def build(n_procs: int = 16, n: int = 96, seed: int = 12) -> Workload:
    """Build the LU workload.

    Args:
        n_procs: number of processors (the paper uses 16).
        n: matrix dimension (the paper uses 200; default reduced).
        seed: RNG seed for the input matrix.
    """
    if n < 2:
        raise ValueError("matrix must be at least 2x2")
    rng = np.random.default_rng(seed)
    # Diagonally dominant so factoring without pivoting is stable.
    a = rng.uniform(0.1, 1.0, size=(n, n)) + np.eye(n) * n

    layout = SegmentAllocator()
    a_base = layout.alloc_doubles("A", n * n)
    ev_base = layout.alloc_words("events", n)
    bar_base = layout.alloc_words("barriers", 2)

    memory = SharedMemory()
    for j in range(n):
        for i in range(n):
            memory.write_double(a_base + (j * n + i) * 8, float(a[i, j]))

    programs = [
        _thread_program(me, n_procs, n, a_base, ev_base, bar_base)
        for me in range(n_procs)
    ]

    expected = _reference_lu(a)

    def verify(mem: SharedMemory) -> None:
        result = np.empty((n, n))
        for j in range(n):
            for i in range(n):
                result[i, j] = mem.read_double(a_base + (j * n + i) * 8)
        if not np.allclose(result, expected, rtol=1e-12, atol=1e-12):
            worst = np.abs(result - expected).max()
            raise AssertionError(
                f"LU result mismatch, max abs error {worst:.3e}"
            )

    return Workload(
        name="lu",
        programs=programs,
        memory=memory,
        layout=layout,
        verify=verify,
        params={"n_procs": n_procs, "n": n, "seed": seed},
    )
