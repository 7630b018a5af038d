"""Tests for the branch target buffer."""

import numpy as np

from repro.cpu import BranchTargetBuffer
from repro.cpu.kernels import control_mispredicts
from repro.isa import Op


def _correct(ops, pc, next_pcs) -> list[bool]:
    """Replay one control instruction at ``pc`` through a fresh BTB the
    way the DS engine does; True where its prediction was right."""
    n = len(next_pcs)
    misp = control_mispredicts(
        np.array([int(op) for op in ops]), np.full(n, pc),
        np.array(next_pcs), BranchTargetBuffer(),
    )
    return (~misp).tolist()


class TestPrediction:
    def test_cold_conditional_predicts_not_taken(self):
        btb = BranchTargetBuffer()
        assert btb.predict(Op.BNE, pc=10, fallthrough=11) == 11

    def test_learns_taken_branch(self):
        btb = BranchTargetBuffer()
        btb.update(Op.BNE, 10, taken=True, target=5)
        assert btb.predict(Op.BNE, 10, fallthrough=11) == 5

    def test_two_bit_hysteresis(self):
        btb = BranchTargetBuffer()
        for _ in range(3):
            btb.update(Op.BNE, 10, taken=True, target=5)
        # One not-taken outcome should not flip a saturated counter.
        btb.update(Op.BNE, 10, taken=False, target=5)
        assert btb.predict(Op.BNE, 10, fallthrough=11) == 5
        btb.update(Op.BNE, 10, taken=False, target=5)
        btb.update(Op.BNE, 10, taken=False, target=5)
        assert btb.predict(Op.BNE, 10, fallthrough=11) == 11

    def test_not_taken_branches_not_allocated(self):
        btb = BranchTargetBuffer()
        btb.update(Op.BNE, 10, taken=False, target=5)
        assert btb._lookup(10) is None

    def test_jr_without_entry_is_mispredicted(self):
        btb = BranchTargetBuffer()
        assert btb.predict(Op.JR, 10, fallthrough=11) == -1

    def test_jr_predicts_last_target(self):
        btb = BranchTargetBuffer()
        btb.update(Op.JR, 10, taken=True, target=99)
        assert btb.predict(Op.JR, 10, fallthrough=11) == 99
        btb.update(Op.JR, 10, taken=True, target=123)
        assert btb.predict(Op.JR, 10, fallthrough=11) == 123

    def test_direct_jumps_always_correct(self):
        btb = BranchTargetBuffer()
        assert btb.predict(Op.J, 10, fallthrough=11) == -2

    def test_paper_geometry(self):
        # Paper section 3.1: 2048 entries, 4-way set-associative.
        btb = BranchTargetBuffer()
        assert (btb.ENTRIES, btb.ASSOC) == (2048, 4)
        assert len(btb._sets) * btb.ASSOC == btb.ENTRIES


class TestReplacement:
    def test_lru_within_set(self):
        btb = BranchTargetBuffer()
        # ASSOC + 1 branches mapping to set 0 (pc % SETS == 0).
        pcs = [i * btb.SETS for i in range(btb.ASSOC + 1)]
        for target, pc in enumerate(pcs[:-1]):
            btb.update(Op.BNE, pc, taken=True, target=target)
        btb.update(Op.BNE, pcs[0], taken=True, target=0)  # refresh pcs[0]
        btb.update(Op.BNE, pcs[-1], taken=True, target=9)  # evicts pcs[1]
        assert btb._lookup(pcs[0]) is not None
        assert btb._lookup(pcs[1]) is None
        for pc in pcs[2:]:
            assert btb._lookup(pc) is not None


class TestPredictedCorrectly:
    def test_loop_branch_accuracy(self):
        next_pcs = [0 if i < 99 else 7 for i in range(100)]
        correct = sum(_correct([Op.BNE] * 100, 6, next_pcs))
        # Misses only on warmup and the final exit.
        assert correct >= 97

    def test_alternating_branch_is_hard(self):
        next_pcs = [0 if i % 2 else 7 for i in range(100)]
        assert sum(_correct([Op.BNE] * 100, 6, next_pcs)) <= 60

    def test_direct_jump_always_correct(self):
        assert _correct([Op.J, Op.JAL], 3, [77, 77]) == [True, True]
