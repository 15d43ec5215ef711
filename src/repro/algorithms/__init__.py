"""The benchmark's algorithms.

:mod:`repro.algorithms.reference` holds the sequential ground-truth
kernels; :mod:`repro.algorithms.registry` holds the selection metadata
(popularity, workload, topic) behind the paper's Tables 2 and 3.
Per-platform implementations live with their engines under
:mod:`repro.platforms`.
"""

from repro.algorithms.registry import (
    ALGORITHMS,
    ITERATIVE,
    SEQUENTIAL,
    SUBGRAPH,
    AlgorithmInfo,
    core_algorithms,
    get_algorithm,
    ldbc_algorithms,
)

__all__ = [
    "ALGORITHMS",
    "ITERATIVE",
    "SEQUENTIAL",
    "SUBGRAPH",
    "AlgorithmInfo",
    "core_algorithms",
    "get_algorithm",
    "ldbc_algorithms",
]
