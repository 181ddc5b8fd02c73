"""Fixed-period and SMARTS-style full functional warm-up.

Both methods *functionally apply* skipped references to the cache
hierarchy and/or branch predictor; they differ only in how much of the
skip region they warm:

- **Fixed period** (paper "FP (x%)"): the last x% of each skip region is
  executed warm, the rest cold.
- **SMARTS** (paper "S$", "SBP", "S$BP"): the entire skip region is warm —
  the fixed-period method with a 100% period.  "Every branch and memory
  operation is functionally applied to the branch predictor and cache
  hierarchy" (paper §2).

Instruction-cache warming applies one access per fetched 64-byte block
(consecutive same-block fetches cannot change cache state; see DESIGN.md).
"""

from __future__ import annotations

from .base import WarmupMethod


class FixedPeriodWarmup(WarmupMethod):
    """Warm the trailing `fraction` of every skip region."""

    warms_cache = True
    warms_predictor = True

    def __init__(self, fraction: float, warm_cache: bool = True,
                 warm_predictor: bool = True, name: str | None = None) -> None:
        super().__init__()
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if not (warm_cache or warm_predictor):
            raise ValueError("at least one structure must be warmed")
        self.fraction = fraction
        self.warm_cache = warm_cache
        self.warm_predictor = warm_predictor
        self.warms_cache = warm_cache
        self.warms_predictor = warm_predictor
        if name is not None:
            self.name = name
        else:
            self.name = f"FP ({int(round(fraction * 100))}%)"

    def skip(self, count: int) -> None:
        self._warm_skip(count, self.fraction, self.warm_cache,
                        self.warm_predictor)


class SmartsWarmup(FixedPeriodWarmup):
    """Full functional warming of the entire skip region (paper's most
    accurate warm-up baseline)."""

    def __init__(self, warm_cache: bool = True,
                 warm_predictor: bool = True) -> None:
        if warm_cache and warm_predictor:
            name = "S$BP"
        elif warm_cache:
            name = "S$"
        else:
            name = "SBP"
        super().__init__(
            fraction=1.0,
            warm_cache=warm_cache,
            warm_predictor=warm_predictor,
            name=name,
        )
