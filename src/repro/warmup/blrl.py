"""BLRL: Boundary Line Reuse Latency warm-up (Eeckhout et al., 2005).

Refines MRRL: "BLRL only considers memory references from instructions
that originate in the cluster ... Only references in the pre-cluster that
affect memory operations in the cluster are applied to the cache" (paper
§2).  The reuse latency of a cluster reference is measured backwards from
the *cluster boundary* to its previous touch inside the skip region;
references whose previous touch is also inside the cluster are ignored
(they warm themselves).
"""

from __future__ import annotations

from ..functional.checkpoint import FunctionalCheckpoint
from .base import WarmupMethod
from .mrrl import reuse_latency_percentile


class BLRLWarmup(WarmupMethod):
    """Boundary-crossing reuse-latency warm-up window."""

    warms_cache = True
    warms_predictor = True

    def __init__(self, percentile: float = 0.99,
                 line_bytes: int = 64) -> None:
        super().__init__()
        if not 0.0 < percentile <= 1.0:
            raise ValueError("percentile must be in (0, 1]")
        self.percentile = percentile
        self.line_bytes = line_bytes
        self.name = f"BLRL ({int(round(percentile * 100))}%)"
        self.window_history: list[int] = []

    def _profile_window(self, gap: int) -> int:
        """Look ahead; return how deep into the gap warm-up must start.

        Only boundary-crossing reuses count: a cluster reference whose
        previous touch happened at gap position p needs the warm-up window
        to start at or before p, i.e. a window of (gap - p) instructions.
        """
        context = self.context
        machine = context.machine
        cluster_size = context.regimen.cluster_size if context.regimen else 0
        horizon = gap + cluster_size

        checkpoint = FunctionalCheckpoint.capture(machine)
        line_shift = self.line_bytes.bit_length() - 1
        last_touch: dict[int, int] = {}
        boundary_latencies: list[int] = []
        cluster_start = gap

        def mem_hook(pc, next_pc, address, is_store):
            position = machine.instructions_retired - base_retired
            line = address >> line_shift
            previous = last_touch.get(line)
            if (
                previous is not None
                and position >= cluster_start
                and previous < cluster_start
            ):
                # Window must reach back to the previous touch.
                boundary_latencies.append(cluster_start - previous)
            last_touch[line] = position

        base_retired = machine.instructions_retired
        machine.run(horizon, mem_hook=mem_hook)
        checkpoint.restore(machine)

        window = reuse_latency_percentile(
            boundary_latencies, self.percentile
        )
        return min(window, gap)

    def skip(self, count: int) -> None:
        window = self._profile_window(count)
        self.window_history.append(window)
        fraction = min(1.0, window / count) if count else 1.0
        self._warm_skip(count, fraction)
