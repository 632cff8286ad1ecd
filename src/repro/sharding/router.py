"""Hash partitioning and scatter/gather for the sharded engine.

The keyspace is partitioned by a process-independent hash (FNV-1a over
the key bytes, then modulo the shard count), so a key's owning shard is
stable across runs, machines and Python hash randomization — a router
rebuilt after a crash routes exactly as its predecessor did, which is
what makes per-shard recovery sufficient to recover the fleet.

Scatter splits a request batch into per-shard sub-batches while
remembering each element's position in the input; gather writes the
per-shard results back into those positions, so callers see one flat
result list in input order regardless of how the batch was partitioned.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_FNV64_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(key: bytes) -> int:
    """64-bit FNV-1a: stable, dependency-free, fine mixing for short keys."""
    digest = _FNV64_OFFSET
    for byte in key:
        digest = ((digest ^ byte) * _FNV64_PRIME) & _FNV64_MASK
    return digest


class ShardRouter:
    """Maps keys to shards and splits/merges batches accordingly."""

    __slots__ = ("num_shards",)

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards

    def shard_for(self, key: bytes) -> int:
        """The shard owning ``key``; stable across processes and runs.

        Rejects non-``bytes`` keys with the same ``TypeError`` a single
        engine raises, before the hash would fail on them obscurely.
        """
        if not isinstance(key, bytes):
            raise TypeError(f"keys must be bytes, got {type(key).__name__}")
        return fnv1a_64(key) % self.num_shards

    def scatter(
        self, items: Sequence[T], key_of: Callable[[T], bytes],
    ) -> Tuple[List[List[T]], List[List[int]]]:
        """Split ``items`` into per-shard sub-batches, preserving order.

        Returns ``(per_shard_items, per_shard_positions)`` where the
        positions record where each sub-batch element sat in the input,
        for :meth:`gather` to invert the split.
        """
        per_shard: List[List[T]] = [[] for __ in range(self.num_shards)]
        positions: List[List[int]] = [[] for __ in range(self.num_shards)]
        for position, item in enumerate(items):
            shard = self.shard_for(key_of(item))
            per_shard[shard].append(item)
            positions[shard].append(position)
        return per_shard, positions

    @staticmethod
    def gather(
        total: int,
        per_shard_results: Sequence[Sequence[R]],
        per_shard_positions: Sequence[Sequence[int]],
    ) -> List[R]:
        """Merge per-shard result lists back into input order."""
        merged: List[R] = [None] * total   # type: ignore[list-item]
        for results, positions in zip(per_shard_results,
                                      per_shard_positions):
            if len(results) != len(positions):
                raise ValueError(
                    f"shard returned {len(results)} results for "
                    f"{len(positions)} requests"
                )
            for position, result in zip(positions, results):
                merged[position] = result
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter(num_shards={self.num_shards})"
