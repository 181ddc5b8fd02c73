"""A-priori counter-inference table (paper §3.2, Figure 3).

During branch-predictor reconstruction "a series of possible states are
tracked for each prediction table entry.  Initially, the set of possible
states includes all possible counter values: 0, 1, 2, or 3."  Each older
outcome discovered in the reverse history narrows the set (three equal
consecutive outcomes anywhere in the forward history pin the counter
exactly).  "Rather than performing this computation at execution time, a
table was built a priori so that reconstruction can be implemented through
a table lookup."

This module builds that table.  A reverse history is encoded as
``(length, bits)`` where bit i of `bits` is the outcome of the (i+1)-th
most recent execution of the entry (bit 0 = most recent).  The table maps
each encoding to an :class:`Inference`:

- ``exact`` — the history pins the counter to a single value;
- otherwise, the paper's ambiguity rules produce the stored value:
  three possible states -> the middle one; two states on one side of the
  taken/not-taken boundary -> the weak form of that side; two straddling
  states -> the weak form of the branch's observed bias; no history ->
  leave the counter stale (`value` is None).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..branch.counters import WEAK_NOT_TAKEN, WEAK_TAKEN, update_counter

#: Reverse histories longer than this are truncated: alternating patterns
#: never pin a 2-bit counter, so unbounded search is pointless.
MAX_HISTORY = 12

#: The identity transition map over counter states.
_IDENTITY = (0, 1, 2, 3)


@dataclass(frozen=True)
class Inference:
    """Result of looking up one reverse history."""

    #: Inferred counter value; None means "leave the stale value".
    value: int | None
    #: True when the history pins the counter to exactly one state.
    exact: bool
    #: The possible-state set the history implies (diagnostics/tests).
    possible: tuple[int, ...]


def prepend_outcome(transition: tuple[int, int, int, int],
                    taken: bool) -> tuple[int, int, int, int]:
    """Extend a transition map with one *older* outcome.

    `transition[s]` is the final counter value reached from pre-history
    state `s` after applying all already-known outcomes in forward order.
    Discovering an older outcome `taken` composes it *before* the existing
    map.
    """
    return (
        transition[update_counter(0, taken)],
        transition[update_counter(1, taken)],
        transition[update_counter(2, taken)],
        transition[update_counter(3, taken)],
    )


def resolve(possible: frozenset[int], taken_count: int,
            length: int) -> Inference:
    """Apply the paper's Figure 3 rules to a possible-state set."""
    states = tuple(sorted(possible))
    if len(states) == 1:
        return Inference(value=states[0], exact=True, possible=states)
    if length == 0:
        # "If no history for a branch is produced, then the counter value
        # is left stale."
        return Inference(value=None, exact=False, possible=states)
    if len(states) == 3:
        # "If three states exist, the middle state is predicted."
        return Inference(value=states[1], exact=False, possible=states)
    # Two states remain.
    taken_side = all(s >= WEAK_TAKEN for s in states)
    not_taken_side = all(s <= WEAK_NOT_TAKEN for s in states)
    if taken_side:
        value = WEAK_TAKEN
    elif not_taken_side:
        value = WEAK_NOT_TAKEN
    else:
        # Straddling pair: fall back to the branch's observed bias,
        # choosing the weak form of the majority direction.
        value = WEAK_TAKEN if 2 * taken_count > length else WEAK_NOT_TAKEN
    return Inference(value=value, exact=False, possible=states)


def _infer(length: int, bits: int) -> Inference:
    """Direct (non-tabulated) inference for one reverse history."""
    transition = _IDENTITY
    taken_count = 0
    for position in range(length):
        taken = bool((bits >> position) & 1)
        taken_count += int(taken)
        transition = prepend_outcome(transition, taken)
        possible = frozenset(transition)
        if len(possible) == 1:
            return Inference(
                value=transition[0], exact=True,
                possible=tuple(sorted(possible)),
            )
    return resolve(frozenset(transition), taken_count, length)


class CounterInferenceTable:
    """Precomputed reverse-history -> counter inference table.

    Histories are truncated to :data:`MAX_HISTORY` outcomes.  The table
    has ``2**(MAX_HISTORY+1)`` entries and is shared process-wide via
    :func:`default_table`; :attr:`code_values` holds their values by
    packed window code, so a whole column of windows resolves in one
    numpy gather.
    """

    def __init__(self, max_history: int = MAX_HISTORY) -> None:
        if max_history < 1:
            raise ValueError("max_history must be >= 1")
        self.max_history = max_history
        self._table: list[list[Inference]] = [
            [_infer(length, bits) for bits in range(1 << length)]
            for length in range(max_history + 1)
        ]
        # The inferred value by packed window code ``(length <<
        # max_history) | bits``, -1 where the history infers none.
        values = [-1] * ((max_history + 1) << max_history)
        for length, row in enumerate(self._table):
            base = length << max_history
            for bits, inference in enumerate(row):
                if inference.value is not None:
                    values[base | bits] = inference.value
        self.code_values = np.array(values, np.int8)

    def lookup(self, length: int, bits: int) -> Inference:
        """Inference for a reverse history of `length` outcomes in `bits`.

        Histories longer than `max_history` are truncated to their most
        recent `max_history` outcomes (older outcomes cannot widen the
        possible-state set, and by then only non-pinning patterns remain).
        """
        if length > self.max_history:
            length = self.max_history
            bits &= (1 << length) - 1
        return self._table[length][bits]

    def __len__(self) -> int:
        return sum(len(row) for row in self._table)


@lru_cache(maxsize=1)
def default_table() -> CounterInferenceTable:
    """The shared a-priori table (built on first use)."""
    return CounterInferenceTable()
