"""MRRL: Memory Reference Reuse Latency warm-up (Haskins & Skadron, 2003).

A related-work baseline the paper compares against conceptually (§2):
MRRL profiles each skip-region/cluster pair to find, for every memory
reference the cluster makes, how far back its previous use lies; the
warm-up window is then sized to cover a chosen percentile of those reuse
latencies, and only that window is functionally warmed.

Unlike RSR, MRRL "pins down the cluster locations and requires profiling
analysis whenever the cluster positions are changed" — reproduced here by
a look-ahead profiling pass over each gap+cluster: the functional machine
is checkpointed, run ahead to collect reuse latencies, and restored before
the real cold/warm execution.
"""

from __future__ import annotations

from ..functional.checkpoint import FunctionalCheckpoint
from .base import WarmupMethod


def reuse_latency_percentile(latencies: list[int], percentile: float) -> int:
    """Smallest latency covering `percentile` of the references."""
    if not latencies:
        return 0
    ordered = sorted(latencies)
    rank = min(len(ordered) - 1, int(percentile * len(ordered)))
    return ordered[rank]


class MRRLWarmup(WarmupMethod):
    """Profile-driven warm-up window sized by reuse-latency percentile."""

    warms_cache = True
    warms_predictor = True

    def __init__(self, percentile: float = 0.99,
                 line_bytes: int = 64) -> None:
        super().__init__()
        if not 0.0 < percentile <= 1.0:
            raise ValueError("percentile must be in (0, 1]")
        self.percentile = percentile
        self.line_bytes = line_bytes
        self.name = f"MRRL ({int(round(percentile * 100))}%)"
        #: Chosen warm-up window per gap (diagnostics).
        self.window_history: list[int] = []

    def _profile_window(self, gap: int) -> int:
        """Look ahead over gap + cluster; return the warm-up window size.

        Reuse latencies are collected at cache-line granularity for every
        reference in the gap and cluster, measured in instructions between
        successive touches of the same line, following the MRRL recipe of
        covering a percentile of reuse behaviour.
        """
        context = self.context
        machine = context.machine
        cluster_size = context.regimen.cluster_size if context.regimen else 0
        horizon = gap + cluster_size

        checkpoint = FunctionalCheckpoint.capture(machine)
        line_shift = self.line_bytes.bit_length() - 1
        last_touch: dict[int, int] = {}
        latencies: list[int] = []
        cluster_start = gap

        def mem_hook(pc, next_pc, address, is_store):
            position = machine.instructions_retired - base_retired
            line = address >> line_shift
            previous = last_touch.get(line)
            if previous is not None and position >= cluster_start:
                latencies.append(position - previous)
            last_touch[line] = position

        base_retired = machine.instructions_retired
        machine.run(horizon, mem_hook=mem_hook)
        checkpoint.restore(machine)

        window = reuse_latency_percentile(latencies, self.percentile)
        return min(window, gap)

    def skip(self, count: int) -> None:
        window = self._profile_window(count)
        self.window_history.append(window)
        fraction = min(1.0, window / count) if count else 1.0
        self._warm_skip(count, fraction)
