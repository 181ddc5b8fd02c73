"""Extension: live-points checkpoint library (paper reference [18]).

Quantifies the generation-once / replay-many trade-off: the library
build pays one warmed functional pass; each subsequent core-parameter
replay costs only the detailed clusters.
"""

from conftest import emit
from repro.harness import format_table
from repro.livepoints import LivePointLibrary
from repro.sampling import SampledSimulator
from repro.timing import CoreConfig
from repro.warmup import SmartsWarmup
from repro.workloads import build_workload


def test_extension_livepoints(benchmark, scale):
    workload = build_workload("perl")
    regimen = scale.regimen()

    library = LivePointLibrary.generate(
        workload, regimen, scale.configs(),
        warmup_prefix=scale.warmup_prefix,
        detail_ramp=scale.detail_ramp,
    )

    replay = benchmark.pedantic(library.replay, rounds=3, iterations=1)

    # The replay must reproduce a direct SMARTS-warmed sampled run
    # exactly (same warmed state, same ramps, same clusters).
    direct = SampledSimulator(
        workload, regimen, scale.configs(),
        warmup_prefix=scale.warmup_prefix,
        detail_ramp=scale.detail_ramp,
    ).run(SmartsWarmup())
    assert replay.cluster_ipcs == direct.cluster_ipcs

    # Sweep three cores from the same library.
    sweep_rows = []
    for label, core in (
        ("baseline", CoreConfig()),
        ("1-issue", CoreConfig(issue_width=1)),
        ("ROB 16", CoreConfig(rob_entries=16, issue_queue_entries=8)),
    ):
        result = library.replay(core)
        sweep_rows.append([
            label, f"{result.estimate.mean:.4f}",
            f"{result.wall_seconds:.2f}s",
        ])

    text = format_table(
        ["core", "IPC", "replay time"],
        sweep_rows,
        title=(
            "Extension: live-points on perl — library built in "
            f"{library.generation_seconds:.1f}s "
            f"({len(library)} points), replays below"
        ),
    )
    emit("extension_livepoints", text)

    # Replays skip all functional fast-forwarding.
    assert replay.wall_seconds < library.generation_seconds
    assert replay.wall_seconds < direct.wall_seconds