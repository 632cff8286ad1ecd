"""Timestamp-ordered multi-version concurrency control for the TC.

Paper Section 6.3: "Instead of using proxies for the multiple versions, the
TC uses the versions themselves" — versions live in recovery-log buffers,
and the MVCC hash table doubles as the access path to that record cache.
A version here carries the log buffer id of its redo record; it is
servable from memory only while that buffer is retained.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..hardware.machine import Machine

VERSION_ENTRY_OVERHEAD_BYTES = 48   # hash chain + version metadata
DRAM_TAG = "tc_version_store"


@dataclass(frozen=True, slots=True)
class Version:
    """One committed version of a key."""

    timestamp: int
    value: Optional[bytes]    # None = deleted at this version
    log_buffer_id: int

    @property
    def size_bytes(self) -> int:
        value_len = len(self.value) if self.value is not None else 0
        return VERSION_ENTRY_OVERHEAD_BYTES + value_len


class VersionStore:
    """Hash table: key -> committed versions, newest first."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._versions: Dict[bytes, List[Version]] = {}
        # (superseding timestamp, key): the key's older versions become
        # reclaimable once the GC horizon reaches that timestamp.
        self._reclaim: List[Tuple[int, bytes]] = []
        self._bytes = 0

    def add(self, key: bytes, version: Version) -> None:
        """Install a newly committed version (must be newest for the key)."""
        self.machine.cpu.charge("hash_probe", category="tc_mvcc")
        self.machine.cpu.charge("install_cas", category="tc_mvcc")
        chain = self._versions.setdefault(key, [])
        if chain and chain[0].timestamp >= version.timestamp:
            raise ValueError(
                f"version timestamps must increase: {version.timestamp} "
                f"after {chain[0].timestamp}"
            )
        if chain:
            heapq.heappush(self._reclaim, (version.timestamp, key))
        chain.insert(0, version)
        nbytes = version.size_bytes + (len(key) if len(chain) == 1 else 0)
        self.machine.dram.allocate(nbytes, DRAM_TAG)
        self._bytes += nbytes

    def visible(self, key: bytes, read_timestamp: int) -> Tuple[
            Optional[Version], int]:
        """Newest version with timestamp <= ``read_timestamp``.

        Returns (version or None, versions examined) for cost charging.
        """
        self.machine.cpu.charge("hash_probe", category="tc_mvcc")
        chain = self._versions.get(key)
        if not chain:
            return None, 0
        examined = 0
        for version in chain:
            examined += 1
            self.machine.cpu.charge("version_visibility_check",
                                    category="tc_mvcc")
            if version.timestamp <= read_timestamp:
                return version, examined
        return None, examined

    def newest_timestamp(self, key: bytes) -> Optional[int]:
        """Timestamp of the newest committed version (for conflict checks)."""
        self.machine.cpu.charge("hash_probe", category="tc_mvcc")
        chain = self._versions.get(key)
        if not chain:
            return None
        return chain[0].timestamp

    def truncate(self, horizon_timestamp: int) -> int:
        """Drop versions no reader can see; returns versions removed.

        Keeps, per key, the newest version at or below the horizon (it is
        still visible) and everything above it.  Only keys queued with a
        superseding timestamp at or below the horizon are visited, so the
        cost is proportional to the versions removed, not the keys held;
        a trimmed chain always keeps at least one version.
        """
        removed = 0
        reclaim = self._reclaim
        while reclaim and reclaim[0][0] <= horizon_timestamp:
            __, key = heapq.heappop(reclaim)
            chain = self._versions[key]
            keep = len(chain)
            for index, version in enumerate(chain):
                if version.timestamp <= horizon_timestamp:
                    keep = index + 1
                    break
            for version in chain[keep:]:
                self._bytes -= version.size_bytes
                self.machine.dram.free(version.size_bytes, DRAM_TAG)
                removed += 1
            del chain[keep:]
        return removed

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def version_count(self) -> int:
        return sum(len(chain) for chain in self._versions.values())

    def key_count(self) -> int:
        return len(self._versions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VersionStore(keys={self.key_count()}, "
            f"versions={self.version_count()}, bytes={self._bytes})"
        )
