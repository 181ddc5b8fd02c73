"""Nine SPEC2000-like synthetic benchmarks.

The paper evaluates on gcc, mcf, parser, perl, vortex, vpr, twolf (integer)
and ammp, art (floating point).  Real SPEC binaries and reference inputs
are not available here, so each benchmark is replaced by a synthetic
program tuned to echo its qualitative character — the properties that the
warm-up comparison is actually sensitive to (see DESIGN.md §2):

==========  =================================================================
benchmark   synthetic character
==========  =================================================================
ammp        numeric streaming sweep + neighbour-list chasing, mul-heavy
art         regular array streaming over two large feature arrays, strongly
            biased (predictable) branches, phase alternation
gcc         large code footprint (I-cache pressure), indirect dispatch,
            drifting symbol-table hot window, moderate-entropy branches
mcf         pointer chasing that sweeps a working set 4x the L2 —
            cache-hostile, latency-bound
parser      deep recursion (RAS churn) + drifting dictionary window +
            maximal-entropy data-dependent branches
perl        interpreter-style indirect call dispatch + hash-table window
vortex      call-heavy object store: store-rich methods over a drifting
            object window
vpr         annealing over a drifting placement window + wire sweeps,
            accept/reject branches, phase behaviour
twolf       like vpr with a pointer-chased net list and stronger branch bias
==========  =================================================================

Two design rules keep the cold-start problem realistic at laptop scale:

1. **Footprints exceed the (scaled) L2**, as SPEC working sets exceed the
   paper's 1 MB L2 — stale cache contents are genuinely wrong, not merely
   displaced.
2. **Locality drifts**: kernels access drifting hot windows, advancing
   stream cursors, or a continuing pointer chase, so *recency* determines
   hit rates.  Uniformly random access would make a stale cache as good
   as a warm one (capacity decides, not contents) and hide non-sampling
   bias entirely.

All footprints scale with `mem_scale`; all randomness derives from the
given seed, so workloads are bit-reproducible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..functional import Memory
from ..isa import ProgramBuilder, DEFAULT_DATA_BASE
from . import kernels
from .generator import (
    Workload,
    init_array,
    init_jump_table,
    init_pointer_chain,
    round_up_power_of_two,
)


class _Allocator:
    """Bump allocator handing out line-aligned data-segment regions."""

    def __init__(self, base: int) -> None:
        self._next = base

    def take(self, num_words: int) -> int:
        base = self._next
        self._next += num_words * 8
        # Keep regions line-aligned and separated by one line.
        self._next = (self._next + 127) & ~63
        return base


def _call(builder: ProgramBuilder, entry: str, a0=None, a1=None, a2=None,
          a3=None):
    """Load up to four immediate arguments (r10..r13) and call `entry`."""
    if a0 is not None:
        builder.li(10, a0)
    if a1 is not None:
        builder.li(11, a1)
    if a2 is not None:
        builder.li(12, a2)
    if a3 is not None:
        builder.li(13, a3)
    builder.call(entry)


def _begin_main(builder: ProgramBuilder, seed: int,
                phase_period: int = 0) -> None:
    """Emit the main-loop prologue: RNG seed, cursors, phase globals."""
    builder.label("main")
    builder.li(kernels.RNG_REG, seed | 1)
    builder.add(22, 0, 0)   # secondary stream cursor
    builder.add(24, 0, 0)   # primary stream cursor
    builder.add(25, 0, 0)   # hot-window base
    if phase_period:
        builder.li(27, phase_period)
        builder.add(28, 0, 0)


def _emit_phase_toggle(builder: ProgramBuilder, phase_period: int) -> None:
    """Decrement the phase countdown; flip r28 when it reaches zero."""
    builder.addi(27, 27, -1)
    builder.bne(27, 0, "after_toggle")
    builder.li(27, phase_period)
    builder.xori(28, 28, 1)
    builder.label("after_toggle")


def _advance_window(builder: ProgramBuilder, step: int) -> None:
    """Slide the hot-window base register by `step` words."""
    builder.addi(25, 25, step)


# ---------------------------------------------------------------------------
# Individual benchmarks
# ---------------------------------------------------------------------------

def build_mcf(mem_scale: int = 1, seed: int = 1009) -> Workload:
    """Pointer-chasing sweep over a working set far larger than the L2."""
    builder = ProgramBuilder("mcf")
    rng = np.random.default_rng(seed)
    alloc = _Allocator(DEFAULT_DATA_BASE)

    chain_words = 32768 * mem_scale
    aux_words = 4096

    chase = kernels.emit_chase_cursor(builder, "chase")
    stream = kernels.emit_stream_cursor(builder, "stream")
    maze = kernels.emit_branch_maze(builder, "maze", threshold=112)

    chain_base = alloc.take(chain_words)
    aux_base = alloc.take(aux_words)

    memory = Memory()
    head = init_pointer_chain(memory, chain_base, chain_words, rng)
    init_array(memory, aux_base, aux_words, rng)

    _begin_main(builder, seed)
    builder.li(23, head)  # chase continues from here, sweeping the cycle
    builder.label("loop")
    _call(builder, chase, a1=192)
    _call(builder, maze, a1=8)
    _call(builder, stream, aux_base, aux_words - 1, 24)
    builder.jmp("loop")
    builder.entry("main")

    return Workload(
        name="mcf",
        program=builder.build(),
        memory=memory,
        description="pointer-chasing network simplex stand-in",
        parameters={"chain_words": chain_words, "seed": seed},
    )


def build_art(mem_scale: int = 1, seed: int = 1013) -> Workload:
    """Streaming sweeps of two large feature arrays, phase alternation."""
    builder = ProgramBuilder("art")
    rng = np.random.default_rng(seed)
    alloc = _Allocator(DEFAULT_DATA_BASE)

    array_words = 16384 * mem_scale
    weight_words = 1024

    stream_f1 = kernels.emit_stream_cursor(builder, "stream_f1",
                                           cursor_reg=24)
    stream_f2 = kernels.emit_stream_cursor(builder, "stream_f2",
                                           cursor_reg=22)
    matrix = kernels.emit_matrix_accumulate(builder, "matrix")
    maze = kernels.emit_branch_maze(builder, "maze", threshold=16)

    f1_base = alloc.take(array_words)
    f2_base = alloc.take(array_words)
    weight_base = alloc.take(weight_words)

    memory = Memory()
    init_array(memory, f1_base, array_words, rng)
    init_array(memory, f2_base, array_words, rng)
    init_array(memory, weight_base, weight_words, rng)

    _begin_main(builder, seed, phase_period=8)
    builder.label("loop")
    _emit_phase_toggle(builder, 8)
    builder.beq(28, 0, "phase_a")
    _call(builder, stream_f2, f2_base, array_words - 1, 112)
    _call(builder, maze, a1=12)
    builder.jmp("tail")
    builder.label("phase_a")
    _call(builder, stream_f1, f1_base, array_words - 1, 96)
    _call(builder, matrix, weight_base, 16, 4)
    builder.label("tail")
    builder.jmp("loop")
    builder.entry("main")

    return Workload(
        name="art",
        program=builder.build(),
        memory=memory,
        description="neural-network streaming stand-in",
        parameters={"array_words": array_words, "seed": seed},
    )


def build_ammp(mem_scale: int = 1, seed: int = 1019) -> Workload:
    """Mul-heavy numeric sweep plus neighbour-list chasing."""
    builder = ProgramBuilder("ammp")
    rng = np.random.default_rng(seed)
    alloc = _Allocator(DEFAULT_DATA_BASE)

    grid_words = 16384 * mem_scale
    neighbour_words = 4096
    weight_words = 512

    stream = kernels.emit_stream_cursor(builder, "sweep")
    chase = kernels.emit_chase_cursor(builder, "neigh")
    matrix = kernels.emit_matrix_accumulate(builder, "matrix")
    maze = kernels.emit_branch_maze(builder, "maze", threshold=24)

    grid_base = alloc.take(grid_words)
    neighbour_base = alloc.take(neighbour_words)
    weight_base = alloc.take(weight_words)

    memory = Memory()
    init_array(memory, grid_base, grid_words, rng)
    head = init_pointer_chain(memory, neighbour_base, neighbour_words, rng)
    init_array(memory, weight_base, weight_words, rng)

    _begin_main(builder, seed)
    builder.li(23, head)
    builder.label("loop")
    _call(builder, stream, grid_base, grid_words - 1, 64)
    _call(builder, chase, a1=64)
    _call(builder, matrix, weight_base, 8, 8)
    _call(builder, maze, a1=8)
    builder.jmp("loop")
    builder.entry("main")

    return Workload(
        name="ammp",
        program=builder.build(),
        memory=memory,
        description="molecular-dynamics numeric stand-in",
        parameters={"grid_words": grid_words, "seed": seed},
    )


def build_gcc(mem_scale: int = 1, seed: int = 1021) -> Workload:
    """Large code footprint, indirect dispatch, drifting symbol table."""
    builder = ProgramBuilder("gcc")
    rng = np.random.default_rng(seed)
    alloc = _Allocator(DEFAULT_DATA_BASE)

    num_leaves = 128
    table_words = round_up_power_of_two(num_leaves)
    symtab_words = 16384 * mem_scale
    window_mask = 511

    leaf_indices = []
    for leaf in range(num_leaves):
        entry_index = builder.here()
        kernels.emit_leaf(builder, f"leaf_{leaf}", work=6 + leaf % 5)
        leaf_indices.append(entry_index)

    dispatch = kernels.emit_indirect_dispatch(builder, "dispatch")
    hash_update = kernels.emit_walking_hash(builder, "symtab")
    maze = kernels.emit_branch_maze(builder, "maze", threshold=96)

    table_base = alloc.take(table_words)
    symtab_base = alloc.take(symtab_words)

    memory = Memory()
    table_entries = list(leaf_indices)
    while len(table_entries) < table_words:
        table_entries.append(leaf_indices[int(rng.integers(0, num_leaves))])
    init_jump_table(memory, table_base, table_entries)
    init_array(memory, symtab_base, symtab_words, rng)

    _begin_main(builder, seed, phase_period=6)
    builder.label("loop")
    _emit_phase_toggle(builder, 6)
    _advance_window(builder, 24)
    builder.beq(28, 0, "phase_a")
    _call(builder, hash_update, symtab_base, symtab_words - 1, 24,
          window_mask)
    _call(builder, maze, a1=24)
    builder.jmp("tail")
    builder.label("phase_a")
    _call(builder, dispatch, table_base, table_words - 1, 12)
    _call(builder, maze, a1=16)
    builder.label("tail")
    builder.jmp("loop")
    builder.entry("main")

    return Workload(
        name="gcc",
        program=builder.build(),
        memory=memory,
        description="compiler stand-in: big code footprint + dispatch",
        parameters={"num_leaves": num_leaves, "symtab_words": symtab_words,
                    "seed": seed},
    )


def build_parser(mem_scale: int = 1, seed: int = 1031) -> Workload:
    """Deep recursion, drifting dictionary window, high branch entropy."""
    builder = ProgramBuilder("parser")
    rng = np.random.default_rng(seed)
    alloc = _Allocator(DEFAULT_DATA_BASE)

    dict_words = 16384 * mem_scale
    window_mask = 1023

    recurse = kernels.emit_recursive(builder, "descend", work=3)
    hash_update = kernels.emit_walking_hash(builder, "dict")
    maze = kernels.emit_branch_maze(builder, "maze", threshold=128)

    dict_base = alloc.take(dict_words)

    memory = Memory()
    init_array(memory, dict_base, dict_words, rng)

    _begin_main(builder, seed)
    builder.label("loop")
    _advance_window(builder, 32)
    _call(builder, recurse, 16)
    _call(builder, hash_update, dict_base, dict_words - 1, 24, window_mask)
    _call(builder, maze, a1=24)
    builder.jmp("loop")
    builder.entry("main")

    return Workload(
        name="parser",
        program=builder.build(),
        memory=memory,
        description="recursive-descent parser stand-in",
        parameters={"dict_words": dict_words, "seed": seed},
    )


def build_perl(mem_scale: int = 1, seed: int = 1033) -> Workload:
    """Interpreter dispatch loop with a drifting hash-table window."""
    builder = ProgramBuilder("perl")
    rng = np.random.default_rng(seed)
    alloc = _Allocator(DEFAULT_DATA_BASE)

    num_ops = 32
    table_words = round_up_power_of_two(num_ops)
    hash_words = 16384 * mem_scale
    window_mask = 511

    op_indices = []
    for op in range(num_ops):
        entry_index = builder.here()
        kernels.emit_leaf(builder, f"op_{op}", work=4 + op % 7)
        op_indices.append(entry_index)

    dispatch = kernels.emit_indirect_dispatch(builder, "dispatch")
    hash_update = kernels.emit_walking_hash(builder, "hashes")
    maze = kernels.emit_branch_maze(builder, "maze", threshold=80)

    table_base = alloc.take(table_words)
    hash_base = alloc.take(hash_words)

    memory = Memory()
    init_jump_table(memory, table_base, op_indices)
    init_array(memory, hash_base, hash_words, rng)

    _begin_main(builder, seed)
    builder.label("loop")
    _advance_window(builder, 24)
    _call(builder, dispatch, table_base, table_words - 1, 16)
    _call(builder, hash_update, hash_base, hash_words - 1, 12, window_mask)
    _call(builder, maze, a1=12)
    builder.jmp("loop")
    builder.entry("main")

    return Workload(
        name="perl",
        program=builder.build(),
        memory=memory,
        description="interpreter dispatch stand-in",
        parameters={"num_ops": num_ops, "hash_words": hash_words,
                    "seed": seed},
    )


def build_vortex(mem_scale: int = 1, seed: int = 1039) -> Workload:
    """Call-heavy object store over a drifting object window."""
    builder = ProgramBuilder("vortex")
    rng = np.random.default_rng(seed)
    alloc = _Allocator(DEFAULT_DATA_BASE)

    store_words = 16384 * mem_scale
    index_words = 4096
    window_mask = 1023

    scatter = kernels.emit_walking_scatter(builder, "scatter")
    stream = kernels.emit_stream_cursor(builder, "stream")
    hash_update = kernels.emit_walking_hash(builder, "index")
    maze = kernels.emit_branch_maze(builder, "maze", threshold=60)

    store_base = alloc.take(store_words)
    index_base = alloc.take(index_words)

    # Mid-size "object method" wrappers: each saves the link register,
    # performs a read-modify-write burst, and returns — generating the
    # call-dense store-rich profile vortex is known for.
    methods = []
    for method in range(6):
        name = builder.label(f"method_{method}")
        builder.addi(30, 30, -8)
        builder.store(31, 30, 0)
        _call(builder, hash_update, index_base, index_words - 1, 3,
              window_mask)
        _call(builder, scatter, store_base, store_words - 1, 4, window_mask)
        builder.load(31, 30, 0)
        builder.addi(30, 30, 8)
        builder.ret()
        methods.append(name)

    memory = Memory()
    init_array(memory, store_base, store_words, rng)
    init_array(memory, index_base, index_words, rng)

    _begin_main(builder, seed)
    builder.label("loop")
    _advance_window(builder, 32)
    for name in methods:
        builder.call(name)
    _call(builder, stream, index_base, index_words - 1, 16)
    _call(builder, maze, a1=8)
    builder.jmp("loop")
    builder.entry("main")

    return Workload(
        name="vortex",
        program=builder.build(),
        memory=memory,
        description="object-store stand-in: call-heavy, store-rich",
        parameters={"store_words": store_words, "seed": seed},
    )


def build_vpr(mem_scale: int = 1, seed: int = 1049) -> Workload:
    """Annealing over a drifting placement window + wire sweeps."""
    builder = ProgramBuilder("vpr")
    rng = np.random.default_rng(seed)
    alloc = _Allocator(DEFAULT_DATA_BASE)

    grid_words = 16384 * mem_scale
    window_mask = 1023

    hash_update = kernels.emit_walking_hash(builder, "swap")
    stream = kernels.emit_stream_cursor(builder, "wires")
    maze = kernels.emit_branch_maze(builder, "accept", threshold=128)

    grid_base = alloc.take(grid_words)

    memory = Memory()
    init_array(memory, grid_base, grid_words, rng)

    _begin_main(builder, seed, phase_period=10)
    builder.label("loop")
    _emit_phase_toggle(builder, 10)
    _advance_window(builder, 32)
    builder.beq(28, 0, "phase_a")
    _call(builder, stream, grid_base, grid_words - 1, 96)
    _call(builder, maze, a1=16)
    builder.jmp("tail")
    builder.label("phase_a")
    _call(builder, hash_update, grid_base, grid_words - 1, 48, window_mask)
    _call(builder, maze, a1=16)
    builder.label("tail")
    builder.jmp("loop")
    builder.entry("main")

    return Workload(
        name="vpr",
        program=builder.build(),
        memory=memory,
        description="place-and-route annealing stand-in",
        parameters={"grid_words": grid_words, "seed": seed},
    )


def build_twolf(mem_scale: int = 1, seed: int = 1051) -> Workload:
    """Standard-cell placement: drifting cell window + net-list chasing."""
    builder = ProgramBuilder("twolf")
    rng = np.random.default_rng(seed)
    alloc = _Allocator(DEFAULT_DATA_BASE)

    cell_words = 16384 * mem_scale
    net_words = 4096
    window_mask = 511

    hash_update = kernels.emit_walking_hash(builder, "cells")
    chase = kernels.emit_chase_cursor(builder, "nets")
    maze = kernels.emit_branch_maze(builder, "accept", threshold=140)

    cell_base = alloc.take(cell_words)
    net_base = alloc.take(net_words)

    memory = Memory()
    init_array(memory, cell_base, cell_words, rng)
    head = init_pointer_chain(memory, net_base, net_words, rng)

    _begin_main(builder, seed)
    builder.li(23, head)
    builder.label("loop")
    _advance_window(builder, 24)
    _call(builder, hash_update, cell_base, cell_words - 1, 24, window_mask)
    _call(builder, chase, a1=96)
    _call(builder, maze, a1=16)
    builder.jmp("loop")
    builder.entry("main")

    return Workload(
        name="twolf",
        program=builder.build(),
        memory=memory,
        description="standard-cell placement stand-in",
        parameters={"cell_words": cell_words, "seed": seed},
    )


#: Paper Table 1 benchmark order.
PAPER_WORKLOADS = (
    "ammp", "art", "gcc", "mcf", "parser", "perl", "twolf", "vortex", "vpr",
)

WORKLOAD_BUILDERS = {
    "ammp": build_ammp,
    "art": build_art,
    "gcc": build_gcc,
    "mcf": build_mcf,
    "parser": build_parser,
    "perl": build_perl,
    "twolf": build_twolf,
    "vortex": build_vortex,
    "vpr": build_vpr,
}


def build_workload(name: str, mem_scale: int = 1,
                   seed: int | None = None) -> Workload:
    """Build one of the nine named workloads.

    A `seed` of None uses the workload's fixed default, which is what the
    paper-reproduction benchmarks use for determinism.
    """
    try:
        builder = WORKLOAD_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOAD_BUILDERS))
        raise ValueError(f"unknown workload {name!r}; known: {known}") from None
    if seed is None:
        return builder(mem_scale=mem_scale)
    return builder(mem_scale=mem_scale, seed=seed)


#: Workloads :func:`cached_workload` keeps per process: the nine paper
#: programs at one memory scale.
CACHED_WORKLOADS = 9


@lru_cache(maxsize=CACHED_WORKLOADS)
def cached_workload(name: str, mem_scale: int = 1) -> Workload:
    """The process's one :class:`Workload` for `name` at `mem_scale`.

    Every by-name run shares it, and with it the program's predecode,
    its translated functional and timing blocks and its memoized
    steady-state prefix.  Callers must not mutate it;
    :func:`build_workload` returns a fresh object.
    """
    return build_workload(name, mem_scale=mem_scale)


def available_workloads() -> tuple[str, ...]:
    """Names of all built-in workloads, in the paper's table order."""
    return PAPER_WORKLOADS
