"""The run-observer protocol: what one join run tells those watching it.

A run (:class:`repro.core.joins.base.JoinRun`) and the data-plane entry
points it drives call these hooks, and only these, on the ``observers``
of the run's :class:`~repro.core.joins.base.ExecutionContext`.  Every
hook does nothing by default; any hook may raise to abandon the run.
The ``check_*`` hooks are handed the inputs and outputs of one engine
step each, for :class:`repro.testkit.InvariantChecker` to check.
"""

from __future__ import annotations


class RunObserver:
    """Base of every run observer; all hooks are no-ops."""

    # The run: its trace, T′'s counts, named checkpoints, each Bloom
    # filter with the join keys it was built over (T′'s for BF_DB, the
    # scan survivors' for BF_H), and artifacts banked for a later plan.
    def on_run_begin(self, trace) -> None:
        pass

    def on_db_filter(self, rows_scanned: int, rows_out: int) -> None:
        pass

    def on_checkpoint(self, label: str) -> None:
        pass

    def on_bloom_built(self, bloom, keys) -> None:
        pass

    def banked_db_filter(self, table: str):
        return None

    def bank_db_filter(self, table: str, parts, matched: int) -> None:
        pass

    def banked_bloom(self, key):
        return None

    def bank_bloom(self, key, result) -> None:
        pass

    # The scan: its block count, then every block's row counts.
    def on_scan_begin(self, total_blocks: int) -> None:
        pass

    def on_scan_block(self, rows_scanned: int, stored_bytes: float,
                      rows_after_predicates: int, rows_after_bloom: int,
                      bloom_applied: bool) -> None:
        pass

    # The engine invariants.
    def check_shuffle_delivery(self, routed, per_destination,
                               delivery_counts) -> None:
        pass

    def check_hash_partition(self, table, key: str, parts,
                             num_partitions: int, hash_fn, routed=None,
                             probe_keys=None) -> None:
        pass

    def check_hybrid_partition(self, table, key: str, parts,
                               num_partitions: int, hash_fn, hot_keys,
                               fanouts=None) -> None:
        pass

    def check_broadcast_routing(self, t_parts, key: str, per_destination,
                                num_destinations: int, hash_fn, hot_keys,
                                fanouts=None) -> None:
        pass

    def check_bloom_contains(self, bloom, keys, mask) -> None:
        pass

    def check_spill_fragments(self, build, probe, build_key: str,
                              probe_key: str, fragments,
                              num_fragments: int, hash_fn) -> None:
        pass
