"""Shared infrastructure for the figure-regeneration benches.

Every bench regenerates one of the paper's tables or figures.  The
expensive shared artifact — the full Table 2 grid of 16 warm-up methods
by 9 workloads — is computed once per pytest session (via the harness's
process-level cache) and sliced by the individual figure benches.  Each
bench additionally times one representative simulation through
pytest-benchmark so the reported numbers reflect real per-run cost.

Outputs are written to ``benchmarks/results/*.txt`` so EXPERIMENTS.md can
reference them.  Scale is controlled by ``REPRO_EXPERIMENT_SCALE``
(default: the ``bench`` tier).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness import execute_matrix, scale_from_env
from repro.store import resolve_store
from repro.warmup import paper_method_suite

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Per-session grid memo (scale name -> matrix), one run of the grid
#: driver per tier, so benches can opt into workers and the on-disk
#: result cache.
_MATRICES: dict = {}


def bench_scale():
    """The experiment tier used by all benches in this session."""
    return scale_from_env(default=os.environ.get("REPRO_BENCH_TIER", "bench"))


def get_full_matrix():
    """The shared 16-method x 9-workload grid (computed once per session).

    ``REPRO_MATRIX_JOBS`` sets the worker count (default 1: serial,
    in-process); ``REPRO_RESULT_CACHE`` opts into
    the on-disk result cache, making warm bench re-runs near-instant.
    """
    scale = bench_scale()
    if scale.name not in _MATRICES:
        jobs = int(os.environ.get("REPRO_MATRIX_JOBS", "1"))
        _MATRICES[scale.name] = execute_matrix(
            paper_method_suite,
            scale=scale,
            jobs=jobs,
            cache=resolve_store(layer="results"),
        )
    return _MATRICES[scale.name]


def save_result(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit(name: str, text: str) -> None:
    """Print a rendered figure and save it for EXPERIMENTS.md."""
    print(f"\n{text}")
    save_result(name, text)


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def matrix():
    return get_full_matrix()
