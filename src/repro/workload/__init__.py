"""Synthetic workload generation (paper Section 5, "Dataset").

Generates the transaction table ``T`` and the click-log table ``L`` with
exact, independent control over the paper's four experimental knobs:
local-predicate selectivities σ_T and σ_L and join-key selectivities
S_T′ and S_L′.
"""

from repro.workload.generator import (
    KeyLayout,
    Workload,
    WorkloadSpec,
    generate_workload,
    zipf_skew_factor,
)
from repro.workload.cache import load_workload, save_workload
from repro.workload.scenario import (
    build_paper_query,
    load_paper_tables,
    log_schema,
    transaction_schema,
)

__all__ = [
    "KeyLayout",
    "Workload",
    "WorkloadSpec",
    "build_paper_query",
    "generate_workload",
    "load_paper_tables",
    "load_workload",
    "save_workload",
    "zipf_skew_factor",
    "log_schema",
    "transaction_schema",
]
