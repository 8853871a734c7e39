"""Tests for JEN's locality-aware balanced block scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hdfs.blocks import Block
from repro.jen.scheduler import assign_blocks


def make_blocks(replica_lists):
    return [
        Block(index, "/f", index * 10, 10, 100.0, tuple(replicas))
        for index, replicas in enumerate(replica_lists)
    ]


class TestAssignment:
    def test_perfect_locality_when_spread(self):
        blocks = make_blocks([(i % 4, (i + 1) % 4) for i in range(16)])
        assignment = assign_blocks(blocks, 4)
        assert assignment.locality_fraction() == 1.0

    def test_balanced_even_with_skewed_replicas(self):
        # Every replica on node 0: balance must win over locality.
        blocks = make_blocks([(0, 1)] * 12)
        assignment = assign_blocks(blocks, 4)
        loads = [len(assignment.blocks_for(w)) for w in range(4)]
        assert max(loads) - min(loads) <= 1

    def test_every_block_assigned_exactly_once(self):
        blocks = make_blocks([(i % 5, (i + 2) % 5) for i in range(23)])
        assignment = assign_blocks(blocks, 5)
        assigned = [
            b.block_id
            for w in range(5) for b in assignment.blocks_for(w)
        ]
        assert sorted(assigned) == list(range(23))

    def test_locality_disabled_round_robins(self):
        # Replicas all on nodes 2 and 3; the offset round-robin spreads
        # blocks evenly and mostly off-replica.
        blocks = make_blocks([(2, 3)] * 8)
        assignment = assign_blocks(blocks, 4, locality=False)
        loads = [len(assignment.blocks_for(w)) for w in range(4)]
        assert loads == [2, 2, 2, 2]
        assert assignment.remote_blocks >= 4
        assert (assignment.local_blocks + assignment.remote_blocks) == 8

    def test_empty_blocks(self):
        assignment = assign_blocks([], 4)
        assert assignment.locality_fraction() == 1.0

    def test_invalid_worker_count(self):
        with pytest.raises(SimulationError):
            assign_blocks([], 0)

    @given(
        num_workers=st.integers(1, 12),
        seeds=st.lists(st.integers(0, 11), min_size=1, max_size=80),
    )
    @settings(max_examples=50, deadline=None)
    def test_balance_invariant(self, num_workers, seeds):
        """No worker ever exceeds ceil(blocks / workers) + 1 blocks."""
        blocks = make_blocks([
            (s % num_workers, (s + 1) % num_workers)
            if num_workers > 1 else (0,)
            for s in seeds
        ])
        assignment = assign_blocks(blocks, num_workers)
        target = -(-len(blocks) // num_workers)
        for worker in range(num_workers):
            assert len(assignment.blocks_for(worker)) <= target + 1
        total = sum(
            len(assignment.blocks_for(w)) for w in range(num_workers)
        )
        assert total == len(blocks)
        assert (assignment.local_blocks + assignment.remote_blocks
                == len(blocks))
