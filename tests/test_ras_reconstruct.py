"""Unit + property tests for reverse RAS reconstruction (Figure 4)."""

from hypothesis import given, settings, strategies as st

from repro.branch import BranchPredictor, PredictorConfig, ReturnAddressStack
from repro.core import BR_CALL, BR_COND, BR_JUMP, BR_RET
from repro.isa import Instruction, Opcode
from repro.core.ras_reconstruct import (
    reconstruct_ras,
    reconstruct_ras_contents,
)


def call(pc):
    return (pc, pc + 100, True, BR_CALL)


def ret(pc):
    return (pc, 0, True, BR_RET)


def cond(pc):
    return (pc, pc + 1, False, BR_COND)


class TestCounterAlgorithm:
    def test_simple_pushes(self):
        log = [call(10), call(20), call(30)]
        assert reconstruct_ras_contents(log, 8) == [31, 21, 11]

    def test_pop_cancels_most_recent_push(self):
        # call 10, call 20, ret (consumes 20's frame), so only 10 survives.
        log = [call(10), call(20), ret(25)]
        assert reconstruct_ras_contents(log, 8) == [11]

    def test_figure4_style_sequence(self):
        # Forward: push A, push B, pop, push C, pop, pop, push D, push E.
        log = [call(1), call(2), ret(3), call(4), ret(5), ret(6),
               call(7), call(8)]
        # Surviving frames newest-first: E (9), D (8).
        assert reconstruct_ras_contents(log, 8) == [9, 8]

    def test_reconstruction_stops_at_capacity(self):
        log = [call(pc) for pc in range(20)]
        contents = reconstruct_ras_contents(log, 4)
        assert contents == [20, 19, 18, 17]

    def test_excess_pops_ignored(self):
        log = [ret(1), ret(2), call(3)]
        # Both pops precede the call in reverse order... walking backwards:
        # call(3) is seen first with zero outstanding pops -> survives.
        assert reconstruct_ras_contents(log, 8) == [4]

    def test_non_call_records_ignored(self):
        log = [cond(1), call(2), cond(3), (4, 9, True, BR_JUMP)]
        assert reconstruct_ras_contents(log, 8) == [3]

    def test_empty_log(self):
        assert reconstruct_ras_contents([], 8) == []

    def test_reconstruct_ras_installs_contents(self):
        ras = ReturnAddressStack(PredictorConfig(64, 64, 4))
        recovered = reconstruct_ras(ras, [call(10), call(20)])
        assert recovered == 2
        assert ras.peek() == 21
        assert ras.contents_from_top() == [21, 11]


@st.composite
def call_ret_logs(draw):
    events = draw(st.lists(
        st.sampled_from(["call", "ret", "other"]), min_size=0, max_size=60,
    ))
    log = []
    for position, kind in enumerate(events):
        pc = position * 3 + 1
        if kind == "call":
            log.append(call(pc))
        elif kind == "ret":
            log.append(ret(pc))
        else:
            log.append(cond(pc))
    return log


def _forward_overflowed(log, capacity):
    """Did a forward finite RAS of `capacity` ever overwrite a live frame?"""
    depth = 0
    for _pc, _next, _taken, kind in log:
        if kind == BR_CALL:
            if depth == capacity:
                return True
            depth += 1
        elif kind == BR_RET and depth > 0:
            depth -= 1
    return False


@given(call_ret_logs(), st.integers(min_value=1, max_value=8))
@settings(max_examples=300, deadline=None)
def test_reverse_reconstruction_matches_forward_simulation(log, capacity):
    """Walking the log forward through a real RAS (starting empty) and
    reconstructing in reverse must agree on the live stack contents —
    exactly, whenever the forward RAS never overflowed.  (On overflow the
    paper's counter algorithm is a best-effort approximation: a circular
    overwrite destroys a frame the reverse walk cannot observe.)"""
    config = PredictorConfig(64, 64, capacity)
    predictor = BranchPredictor(config)
    for pc, next_pc, _taken, kind in log:
        if kind == BR_CALL:
            predictor.update(pc, Instruction(Opcode.CALL), True, next_pc)
        elif kind == BR_RET:
            predictor.update(pc, Instruction(Opcode.RET), True, next_pc)
    forward = predictor.ras

    reconstructed = reconstruct_ras_contents(log, capacity)
    if not _forward_overflowed(log, capacity):
        assert reconstructed == forward.contents_from_top()
    else:
        # Approximation: the reconstructed stack may resurrect frames the
        # circular overwrite destroyed, but never fewer than survive, and
        # the top of stack (the next RET's prediction) still matches when
        # anything survives at all.
        survivors = forward.contents_from_top()
        assert len(reconstructed) >= len(survivors)
        if survivors:
            assert reconstructed[0] == survivors[0]


def test_overflow_approximation_example():
    """Documented deviation: capacity-1 RAS, two pushes then a pop.
    Forward loses the first frame to the overwrite; the reverse counter
    algorithm resurrects it."""
    log = [call(1), call(4), ret(7)]
    assert reconstruct_ras_contents(log, 1) == [2]


@given(call_ret_logs())
@settings(max_examples=100, deadline=None)
def test_recovered_addresses_come_from_calls(log):
    contents = reconstruct_ras_contents(log, 8)
    call_returns = {pc + 1 for pc, _n, _t, kind in log if kind == BR_CALL}
    assert set(contents) <= call_returns
