"""Ablation: reverse-order scan versus forward replay of the log tail.

DESIGN.md §5: the reverse scan is what lets reconstruction stop touching
a set once its final state is known.  A forward replay of the same log
tail applies *every* reference (like fixed-period warm-up from a buffer),
so it performs strictly more cache updates for the same final state
quality.  This bench quantifies the update-count gap.
"""

from conftest import emit
from repro.cache import MemoryHierarchy
from repro.core import REF_INSTRUCTION, REF_STORE, ReverseCacheReconstructor
from repro.harness import format_table
from repro.workloads import build_workload
from tests.oracle_skiplog import SkipRegionLog


def _collect_log(workload_name, skip_instructions, scale):
    workload = build_workload(workload_name)
    machine = workload.make_machine()
    machine.run(20_000)  # move past initialisation
    log = SkipRegionLog()
    machine.run(
        skip_instructions,
        mem_hook=log.make_mem_hook(),
        ifetch_hook=log.make_ifetch_hook(),
        ifetch_block_bytes=64,
    )
    return log


def _forward_replay(hierarchy, records):
    applied = 0
    for address, kind in records:
        is_instruction = kind == REF_INSTRUCTION
        hierarchy.warm_access(address, kind == REF_STORE, is_instruction)
        applied += 1
    return applied


def test_ablation_reverse_vs_forward(benchmark, scale):
    fraction = 0.4
    rows = []
    gap = max(20_000, scale.total_instructions // scale.num_clusters)

    for name in ("gcc", "vpr", "mcf"):
        log = _collect_log(name, gap, scale)
        tail = log.memory_tail(fraction)

        reverse_hierarchy = MemoryHierarchy(scale.configs().hierarchy)
        reconstructor = ReverseCacheReconstructor(reverse_hierarchy)
        stats = reconstructor.reconstruct(log, fraction)

        forward_hierarchy = MemoryHierarchy(scale.configs().hierarchy)
        forward_updates_before = forward_hierarchy.total_updates()
        _forward_replay(forward_hierarchy, tail)
        forward_updates = (
            forward_hierarchy.total_updates() - forward_updates_before
        )

        overlap = len(
            reverse_hierarchy.l1d.contents()
            & forward_hierarchy.l1d.contents()
        )
        total = max(1, len(forward_hierarchy.l1d.contents()))
        rows.append([
            name,
            str(len(tail)),
            str(stats.applied),
            str(forward_updates),
            f"{forward_updates / max(1, stats.applied):.1f}x",
            f"{overlap / total * 100:.0f}%",
        ])
        # Reverse applies far fewer updates...
        assert stats.applied < forward_updates / 2, name
        # ...while producing nearly the same final L1D contents.
        assert overlap / total > 0.80, name

    def render():
        return format_table(
            ["workload", "log tail refs", "reverse updates",
             "forward updates", "update ratio", "L1D content overlap"],
            rows,
            title=f"Ablation: reverse scan vs forward replay "
                  f"({fraction:.0%} tail of a {gap}-instruction gap)",
        )

    text = benchmark.pedantic(render, rounds=5, iterations=1)
    emit("ablation_reverse_vs_forward", text)
