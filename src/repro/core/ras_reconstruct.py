"""Reverse return-address-stack reconstruction (paper §3.2, Figure 4).

"Whenever a pop is encountered in the reverse history, a single counter is
incremented.  If a push is encountered, and the counter is equal to zero,
the next PC is placed at the end of the RAS.  Otherwise, whenever a push
is seen, the counter is decremented.  Once the return address stack has
been filled, reconstruction is complete."

Intuition: walking backwards, a pop cancels the most recent not-yet-seen
push (that pushed address was consumed before the cluster started), so
pushes only survive onto the final stack when no outstanding pop shadows
them.  Surviving pushes are discovered newest-first, i.e. top of stack
first.
"""

from __future__ import annotations

from ..branch import ReturnAddressStack
from .source import BR_CALL, BR_RET


def reconstruct_ras_contents(
    branch_records: list[tuple[int, int, bool, int]],
    capacity: int,
) -> list[int]:
    """Compute the final RAS contents (top first) from a branch log.

    `branch_records` is in program order; the reverse counter algorithm
    walks it backwards.  Returns at most `capacity` return addresses.
    """
    contents: list[int] = []
    outstanding_pops = 0
    for position in range(len(branch_records) - 1, -1, -1):
        pc, _next_pc, _taken, kind = branch_records[position]
        if kind == BR_RET:
            outstanding_pops += 1
        elif kind == BR_CALL:
            if outstanding_pops == 0:
                # The return address of a call is the instruction after it.
                contents.append(pc + 1)
                if len(contents) >= capacity:
                    break
            else:
                outstanding_pops -= 1
    return contents


def reconstruct_ras_from_source(ras: ReturnAddressStack, source,
                                fraction: float = 1.0) -> int:
    """Rebuild `ras` from a :class:`~repro.core.source.ReconstructionSource`.

    The source answers the push/pop counter question directly: the
    compacted log reads its unmatched-call stack, while the raw test
    oracle replays its branch tail through
    :func:`reconstruct_ras_contents`.  Returns the number of entries
    recovered.
    """
    contents = source.ras_tail_contents(fraction, ras.size)
    ras.set_contents(contents)
    return len(contents)
