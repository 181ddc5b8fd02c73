"""Reusable code kernels for the synthetic workload generators.

Each ``emit_*`` function appends one callable kernel to a
:class:`~repro.isa.ProgramBuilder` and returns its entry label.  Kernels
follow a fixed register convention:

==========  ===================================================
register    role
==========  ===================================================
r1 - r8     kernel-local scratch (clobbered freely)
r10 - r14   kernel arguments
r15         kernel return value
r20 - r21   main-loop globals (kernels must not touch)
r22         secondary stream cursor (drift kernels advance it)
r23         pointer-chase current node (drift kernels advance it)
r24         primary stream cursor (drift kernels advance it)
r25         hot-window base (main loop slides it; kernels read it)
r26         shared linear-congruential RNG state (kernels may advance)
r27 - r29   main-loop globals (kernels must not touch)
r30         stack pointer
r31         link register
==========  ===================================================

The kernels were chosen to span the behaviours the paper's benchmarks
exhibit: streaming (art/ammp), pointer chasing (mcf), random read-modify-
write (vpr/twolf), recursion (parser), indirect dispatch (perl/gcc), deep
call chains (vortex), and biased data-dependent branching (everything).
"""

from __future__ import annotations

from ..isa import ProgramBuilder

#: Multiplier/increment of the in-register LCG (Knuth's MMIX constants).
LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407

#: The shared RNG state register.
RNG_REG = 26


def emit_lcg_advance(builder: ProgramBuilder) -> None:
    """Advance the shared LCG: r26 = r26 * a + c (inline, 3 instructions)."""
    builder.li(8, LCG_MULTIPLIER)
    builder.mul(RNG_REG, RNG_REG, 8)
    builder.li(8, LCG_INCREMENT)
    builder.add(RNG_REG, RNG_REG, 8)


def emit_branch_maze(builder: ProgramBuilder, name: str,
                     threshold: int, work: int = 2) -> str:
    """Data-dependent branching: r11 iterations, taken bias = threshold/256.

    Per iteration a pseudo-random byte is compared against `threshold`;
    the two sides run `work` filler ALU ops each.  `threshold` near 128
    maximises branch entropy; near 0 or 256 the branch is strongly biased.
    """
    entry = builder.label(name)
    builder.add(2, 11, 0)
    loop = builder.label(name + "_loop")
    emit_lcg_advance(builder)
    builder.srli(3, RNG_REG, 33)
    builder.andi(3, 3, 255)
    builder.li(4, threshold)
    taken_side = name + "_taken"
    join = name + "_join"
    builder.blt(3, 4, taken_side)
    for _ in range(work):
        builder.addi(5, 5, 1)
    builder.jmp(join)
    builder.label(taken_side)
    for _ in range(work):
        builder.addi(6, 6, 1)
    builder.label(join)
    builder.addi(2, 2, -1)
    builder.bne(2, 0, loop)
    builder.ret()
    return entry


def emit_recursive(builder: ProgramBuilder, name: str, work: int = 2) -> str:
    """Recursive descent of depth r10 (parser-style call/return, RAS churn).

    Saves the link register and argument on the stack each level.
    """
    entry = builder.label(name)
    base_case = name + "_base"
    builder.beq(10, 0, base_case)
    builder.addi(30, 30, -16)
    builder.store(31, 30, 0)
    builder.store(10, 30, 8)
    for _ in range(work):
        builder.addi(5, 5, 3)
    builder.addi(10, 10, -1)
    builder.call(entry)
    builder.load(31, 30, 0)
    builder.load(10, 30, 8)
    builder.addi(30, 30, 16)
    builder.ret()
    builder.label(base_case)
    builder.addi(15, 0, 1)
    builder.ret()
    return entry


def emit_leaf(builder: ProgramBuilder, name: str, work: int = 3) -> str:
    """A tiny leaf function (ALU filler + ret); dispatch-table target."""
    entry = builder.label(name)
    for step in range(work):
        builder.addi(5, 5, step + 1)
    builder.xor(5, 5, RNG_REG)
    builder.ret()
    return entry


def emit_indirect_dispatch(builder: ProgramBuilder, name: str) -> str:
    """Indirect call dispatch: r12 iterations through table r10, mask r11.

    Each iteration loads a function entry index from the in-memory jump
    table at a pseudo-random slot and calls it via CALLR — perl-style
    interpreter dispatch that pressures the BTB and RAS.
    """
    entry = builder.label(name)
    builder.add(2, 12, 0)
    loop = builder.label(name + "_loop")
    builder.addi(30, 30, -16)
    builder.store(31, 30, 0)
    builder.store(2, 30, 8)
    emit_lcg_advance(builder)
    builder.srli(3, RNG_REG, 25)
    builder.and_(3, 3, 11)
    builder.slli(3, 3, 3)
    builder.add(3, 3, 10)
    builder.load(4, 3, 0)          # function entry index
    builder.callr(4)
    builder.load(31, 30, 0)
    builder.load(2, 30, 8)
    builder.addi(30, 30, 16)
    builder.addi(2, 2, -1)
    builder.bne(2, 0, loop)
    builder.ret()
    return entry


def emit_matrix_accumulate(builder: ProgramBuilder, name: str) -> str:
    """Row-major nested loop: r11 rows x r12 cols over base r10, with a
    multiply in the inner loop (ammp/art-style numeric streaming)."""
    entry = builder.label(name)
    builder.add(1, 10, 0)          # ptr
    builder.add(2, 11, 0)          # row counter
    builder.add(4, 0, 0)           # acc
    row_loop = builder.label(name + "_row")
    builder.add(3, 12, 0)          # col counter
    col_loop = builder.label(name + "_col")
    builder.load(5, 1, 0)
    builder.mul(5, 5, 3)
    builder.add(4, 4, 5)
    builder.addi(1, 1, 8)
    builder.addi(3, 3, -1)
    builder.bne(3, 0, col_loop)
    builder.addi(2, 2, -1)
    builder.bne(2, 0, row_loop)
    builder.add(15, 4, 0)
    builder.ret()
    return entry


# ---------------------------------------------------------------------------
# Drifting-locality kernels
#
# Uniformly random access gives a stale cache the same *miss rate* as a
# true cache (capacity, not recency, decides), which would hide the
# cold-start bias the paper measures.  Real workloads have temporal
# drift: the hot set moves, so recently-touched lines matter.  These
# kernels model that with global cursor/window registers:
#
#   r22  secondary stream cursor (word offset)
#   r23  pointer-chase current node (byte address)
#   r24  primary stream cursor (word offset)
#   r25  hot-window base (word offset), advanced by the main loop
# ---------------------------------------------------------------------------

def emit_stream_cursor(builder: ProgramBuilder, name: str,
                       cursor_reg: int = 24) -> str:
    """Sequential reduction that *continues* across calls.

    Streams r12 words from ``r10 + 8 * ((cursor + i) & r11)`` and leaves
    the cursor advanced, so successive calls sweep the whole array the
    way art/ammp scan their feature arrays once per epoch.  r11 is a
    power-of-two word-count mask.
    """
    entry = builder.label(name)
    builder.add(2, 12, 0)              # remaining
    builder.add(4, 0, 0)               # acc
    loop = builder.label(name + "_loop")
    builder.and_(3, cursor_reg, 11)    # wrapped word offset
    builder.slli(3, 3, 3)
    builder.add(3, 3, 10)
    builder.load(5, 3, 0)
    builder.add(4, 4, 5)
    builder.addi(cursor_reg, cursor_reg, 1)
    builder.addi(2, 2, -1)
    builder.bne(2, 0, loop)
    builder.add(15, 4, 0)
    builder.ret()
    return entry


def emit_chase_cursor(builder: ProgramBuilder, name: str,
                      node_reg: int = 23) -> str:
    """Pointer chase that continues from the last node (register r23).

    Successive calls sweep the entire chain cycle instead of retracing
    its head, giving mcf-style working sets that dwarf the caches while
    still rewarding recency (the chase revisits each node once per lap).
    """
    entry = builder.label(name)
    builder.add(2, 11, 0)
    loop = builder.label(name + "_loop")
    builder.load(node_reg, node_reg, 0)
    builder.addi(2, 2, -1)
    builder.bne(2, 0, loop)
    builder.add(15, node_reg, 0)
    builder.ret()
    return entry


def emit_walking_hash(builder: ProgramBuilder, name: str,
                      window_reg: int = 25, fields: int = 3) -> str:
    """Random record read-modify-write inside a drifting hot window.

    Each iteration picks a pseudo-random record in the window
    (``(window_base + (rand & r13)) & r11`` over table r10) and updates
    `fields` consecutive words of it — the multi-field structure updates
    real code performs, which also keeps the memory-reference density in
    SPEC's 30-40% range.  Reuse is intense inside the window (recency
    pays) and the main loop slides the window, so state from one cluster
    goes stale by the next — the drift that makes warm-up matter.
    """
    entry = builder.label(name)
    builder.add(2, 12, 0)
    loop = builder.label(name + "_loop")
    emit_lcg_advance(builder)
    builder.srli(3, RNG_REG, 30)
    builder.and_(3, 3, 13)             # offset within window
    builder.add(3, 3, window_reg)
    builder.and_(3, 3, 11)             # wrap at table size
    builder.slli(3, 3, 3)
    builder.add(3, 3, 10)
    for field in range(fields):
        builder.load(4, 3, field * 8)
        builder.addi(4, 4, 1)
        builder.store(4, 3, field * 8)
    builder.addi(2, 2, -1)
    builder.bne(2, 0, loop)
    builder.ret()
    return entry


def emit_walking_scatter(builder: ProgramBuilder, name: str,
                         window_reg: int = 25, fields: int = 3) -> str:
    """Write-only record scatter inside the same drifting window
    (vortex-style store bursts whose locality moves with the object being
    built); `fields` consecutive words are written per record."""
    entry = builder.label(name)
    builder.add(2, 12, 0)
    loop = builder.label(name + "_loop")
    emit_lcg_advance(builder)
    builder.srli(3, RNG_REG, 28)
    builder.and_(3, 3, 13)
    builder.add(3, 3, window_reg)
    builder.and_(3, 3, 11)
    builder.slli(3, 3, 3)
    builder.add(3, 3, 10)
    for field in range(fields):
        builder.store(2, 3, field * 8)
    builder.addi(2, 2, -1)
    builder.bne(2, 0, loop)
    builder.ret()
    return entry
