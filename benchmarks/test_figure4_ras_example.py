"""Figure 4: reverse return-address-stack reconstruction.

Regenerates the paper's forward/reverse call-sequence example and
benchmarks reconstruction over a deep call trace.
"""

import numpy as np

from conftest import emit
from repro.branch import BranchPredictor, PredictorConfig
from repro.core import reconstruct_ras_contents
from repro.core import BR_CALL, BR_RET
from repro.harness import format_table
from repro.isa import Instruction, Opcode


def test_figure4_worked_example(benchmark):
    # Forward: push A@10, push B@20, pop, push C@30, pop, pop,
    #          push D@40, push E@50.
    log = [
        (10, 110, True, BR_CALL),
        (20, 120, True, BR_CALL),
        (25, 0, True, BR_RET),
        (30, 130, True, BR_CALL),
        (35, 0, True, BR_RET),
        (36, 0, True, BR_RET),
        (40, 140, True, BR_CALL),
        (50, 150, True, BR_CALL),
    ]

    contents = benchmark.pedantic(
        lambda: reconstruct_ras_contents(log, 8), rounds=100, iterations=100,
    )
    # Forward simulation agrees: only D and E frames survive.
    forward = BranchPredictor(PredictorConfig(64, 64, 8))
    for pc, next_pc, _taken, kind in log:
        opcode = Opcode.CALL if kind == BR_CALL else Opcode.RET
        forward.update(pc, Instruction(opcode), True, next_pc)
    assert contents == forward.ras.contents_from_top() == [51, 41]

    rows = []
    counter = 0
    for pc, _next, _taken, kind in reversed(log):
        if kind == BR_RET:
            counter += 1
            rows.append([f"pop  @ {pc}", str(counter), "-"])
        elif counter == 0:
            rows.append([f"push @ {pc}", "0", f"RAS <- {pc + 1}"])
        else:
            counter -= 1
            rows.append([f"push @ {pc}", str(counter), "cancelled"])
    text = format_table(
        ["reverse event", "counter", "action"],
        rows,
        title="Figure 4: reverse RAS reconstruction "
              f"(result, top first: {contents})",
    )
    emit("figure4_ras_example", text)


def test_figure4_deep_trace(benchmark):
    """Reconstruction cost over a long random call/return trace."""
    rng = np.random.default_rng(5)
    log = []
    for position in range(50_000):
        if rng.random() < 0.5:
            log.append((position, position + 100, True, BR_CALL))
        else:
            log.append((position, 0, True, BR_RET))

    contents = benchmark.pedantic(
        lambda: reconstruct_ras_contents(log, 8), rounds=3, iterations=1,
    )
    assert len(contents) <= 8
