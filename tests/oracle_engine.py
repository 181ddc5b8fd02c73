"""The reference engine: scalar twins of the production hot paths.

The simulator has one engine.  Cold and warm execution run translated
basic blocks (:meth:`~repro.functional.FunctionalMachine.run`), and the
reverse scans of cache and BTB reconstruction pre-filter their winners
with numpy.  This module keeps the straightforward versions those paths
are checked against, bit for bit:

- :class:`ScalarMachine` — a machine whose ``run`` is the per-step
  :meth:`~repro.functional.FunctionalMachine.run_scalar` loop;
- :func:`scalar_cache_scan` — the paper's literal reverse cache scan,
  one ``reconstruct_reference`` call per logged reference and level;
- :func:`scalar_btb_scan` — one ``btb.reconstruct`` call per claim,
  newest first;
- :func:`reference_engine` — a context manager that runs whole
  simulations on all three.
"""

from __future__ import annotations

import contextlib
import os
from unittest import mock

from repro.core.branch_reconstruct import ReverseBranchReconstructor
from repro.core.cache_reconstruct import ReverseCacheReconstructor
from repro.core.source import REF_INSTRUCTION, REF_STORE
from repro.functional import FunctionalMachine
from repro.harness.executor import EXECUTOR_ENV_VAR


class ScalarMachine(FunctionalMachine):
    """A functional machine whose bulk execution steps one instruction
    at a time."""

    run = FunctionalMachine.run_scalar


def scalar_cache_scan(reconstructor, source, fraction):
    """Per-reference twin of ``ReverseCacheReconstructor._apply_tail``:
    returns ``(scanned, applied)``."""
    hierarchy = reconstructor.hierarchy
    l1i_reconstruct = hierarchy.l1i.reconstruct_reference
    l1d_reconstruct = hierarchy.l1d.reconstruct_reference
    l2_reconstruct = hierarchy.l2.reconstruct_reference
    addresses, kinds = source.memory_reverse_arrays(fraction)
    applied = 0
    # "the reference stream is scanned in reverse order"
    for address, kind in zip(addresses.tolist(), kinds.tolist()):
        if kind == REF_INSTRUCTION:
            touched = l1i_reconstruct(address, False)
            touched |= l2_reconstruct(address, False)
        else:
            is_store = kind == REF_STORE
            touched = l1d_reconstruct(address, is_store)
            touched |= l2_reconstruct(address, is_store)
        if touched:
            applied += 1
    return len(addresses), applied


def scalar_btb_scan(reconstructor, source, fraction):
    """Per-claim twin of ``ReverseBranchReconstructor._rebuild_btb``:
    returns how many claims were scanned."""
    btb = reconstructor.predictor.btb
    pcs, targets = source.btb_claims_arrays(fraction)
    for pc, target in zip(pcs.tolist(), targets.tolist()):
        btb.reconstruct(pc, target)
    return len(pcs)


@contextlib.contextmanager
def reference_engine():
    """Run every simulation inside the block on the reference engine.

    Patches reach only this process, so the block also pins the
    ``inprocess`` executor: sharded runs fold their shards here instead
    of in pool workers (the backends are checked bit-identical to each
    other by the streaming-fold suite).
    """
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            FunctionalMachine, "run", FunctionalMachine.run_scalar))
        stack.enter_context(mock.patch.object(
            ReverseCacheReconstructor, "_apply_tail", scalar_cache_scan))
        stack.enter_context(mock.patch.object(
            ReverseBranchReconstructor, "_rebuild_btb", scalar_btb_scan))
        stack.enter_context(mock.patch.dict(
            os.environ, {EXECUTOR_ENV_VAR: "inprocess"}))
        yield
