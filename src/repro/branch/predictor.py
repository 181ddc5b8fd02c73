"""Combined branch predictor: Gshare PHT + direct-mapped BTB + RAS.

Prediction and training follow the paper's §4 framework (64K-entry Gshare,
4K-entry BTB, 8-entry RAS).  The same :meth:`BranchPredictor.update` path
is used by detailed simulation and by SMARTS-style functional warming, so
warmed predictor state is exactly what full simulation would produce.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import Instruction, Opcode
from .btb import BranchTargetBuffer
from .config import PredictorConfig, paper_predictor_config
from .counters import STRONG_NOT_TAKEN, STRONG_TAKEN
from .gshare import GsharePHT
from .ras import ReturnAddressStack


@dataclass
class PredictorStats:
    conditional_branches: int = 0
    mispredictions: int = 0
    control_transfers: int = 0
    target_mispredictions: int = 0

    def reset(self) -> None:
        self.conditional_branches = 0
        self.mispredictions = 0
        self.control_transfers = 0
        self.target_mispredictions = 0

    def misprediction_rate(self) -> float:
        if not self.conditional_branches:
            return 0.0
        return self.mispredictions / self.conditional_branches


class BranchPredictor:
    """Front-end prediction state for one core."""

    def __init__(self, config: PredictorConfig | None = None) -> None:
        self.config = config if config is not None else paper_predictor_config()
        self.pht = GsharePHT(self.config)
        self.btb = BranchTargetBuffer(self.config)
        self.ras = ReturnAddressStack(self.config)
        self.stats = PredictorStats()

    # -- prediction --------------------------------------------------------

    def predict(self, pc: int, inst: Instruction) -> int:
        """Predicted next instruction index for the control transfer at `pc`.

        A fall-through prediction (pc + 1) is produced when the direction
        predictor says not-taken or the BTB has no target for a predicted-
        taken transfer.
        """
        op = inst.opcode
        if inst.is_cond_branch:
            if self.pht.predict(pc):
                target = self.btb.lookup(pc)
                return target if target is not None else pc + 1
            return pc + 1
        if op is Opcode.RET:
            target = self.ras.peek()
            return target if target else pc + 1
        # Direct and indirect jumps/calls predict through the BTB.
        target = self.btb.lookup(pc)
        return target if target is not None else pc + 1

    # -- training -----------------------------------------------------------

    def update(self, pc: int, inst: Instruction, taken: bool,
               next_pc: int) -> None:
        """Train all structures with the resolved outcome of one transfer.

        The one implementation of the training rule: a conditional
        branch steps its Gshare counter (indexed with the GHR before the
        outcome shifts in) and records its target when taken; a return
        pops the RAS; a call pushes its return address; every other
        transfer writes the BTB.
        """
        if inst.is_cond_branch:
            pht = self.pht
            history = pht.history
            counters = pht.counters
            entry = (pc ^ history) & pht._mask
            counter = counters[entry]
            pht.updates += 1
            if taken:
                if counter < STRONG_TAKEN:
                    counters[entry] = counter + 1
                pht.history = ((history << 1) | 1) & pht._history_mask
                btb = self.btb
                slot = pc & btb._mask
                btb.tags[slot] = pc
                btb.targets[slot] = next_pc
                btb.updates += 1
            else:
                if counter > STRONG_NOT_TAKEN:
                    counters[entry] = counter - 1
                pht.history = (history << 1) & pht._history_mask
            return
        ras = self.ras
        if inst.is_ret:
            # A pop of an empty stack changes only the pop count.
            ras.pops += 1
            if ras.depth:
                ras.top = (ras.top - 1) % ras.size
                ras.depth -= 1
            return
        if inst.is_call:
            # A push beyond capacity overwrites the oldest entry.
            top = (ras.top + 1) % ras.size
            ras.top = top
            ras.stack[top] = pc + 1
            if ras.depth < ras.size:
                ras.depth += 1
            ras.pushes += 1
        btb = self.btb
        slot = pc & btb._mask
        btb.tags[slot] = pc
        btb.targets[slot] = next_pc
        btb.updates += 1

    def predict_and_update(self, pc: int, inst: Instruction, taken: bool,
                           next_pc: int) -> bool:
        """Predict, record statistics, then train.  Returns True on a
        misprediction (direction or target)."""
        predicted = self.predict(pc, inst)
        mispredicted = predicted != next_pc
        if inst.is_cond_branch:
            self.stats.conditional_branches += 1
            if mispredicted:
                self.stats.mispredictions += 1
        else:
            self.stats.control_transfers += 1
            if mispredicted:
                self.stats.target_mispredictions += 1
        self.update(pc, inst, taken, next_pc)
        return mispredicted

    # -- bookkeeping ----------------------------------------------------------

    def total_updates(self) -> int:
        """State-changing operations applied (warm-up cost metric)."""
        return self.pht.updates + self.btb.updates + self.ras.pushes \
            + self.ras.pops

    def clear_reconstructed(self) -> None:
        """Clear all reconstructed bits ahead of a reverse warm-up pass."""
        self.pht.clear_reconstructed()
        self.btb.clear_reconstructed()

    def export_state(self) -> dict:
        """Snapshot the architecturally visible predictor state
        (live-points support)."""
        return {
            "counters": list(self.pht.counters),
            "history": self.pht.history,
            "btb_tags": list(self.btb.tags),
            "btb_targets": list(self.btb.targets),
            "ras_stack": list(self.ras.stack),
            "ras_top": self.ras.top,
            "ras_depth": self.ras.depth,
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`export_state` (same geometry)."""
        if len(state["counters"]) != self.pht.entries or \
                len(state["btb_tags"]) != self.btb.entries or \
                len(state["ras_stack"]) != self.ras.size:
            raise ValueError("snapshot geometry does not match predictor")
        self.pht.counters = list(state["counters"])
        self.pht.set_history(state["history"])
        self.btb.tags = list(state["btb_tags"])
        self.btb.targets = list(state["btb_targets"])
        self.ras.stack = list(state["ras_stack"])
        self.ras.top = state["ras_top"]
        self.ras.depth = state["ras_depth"]
        self.clear_reconstructed()

    def reset(self) -> None:
        self.pht.reset()
        self.btb.reset()
        self.ras.reset()
        self.stats.reset()

    def __repr__(self) -> str:
        return (
            f"BranchPredictor(pht={self.config.pht_entries}, "
            f"btb={self.config.btb_entries}, ras={self.config.ras_entries})"
        )
