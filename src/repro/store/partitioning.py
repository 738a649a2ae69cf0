"""Key-to-partition mapping via consistent hashing.

Carousel uses consistent hashing to map keys to partitions (§3.3, [22]).
The ring places a configurable number of virtual nodes per partition on a
64-bit hash circle; a key belongs to the partition owning the first virtual
node clockwise from the key's hash.  The hash is ``blake2b`` (stable across
processes and Python versions, unlike ``hash()``), so deployments and tests
agree on placement.
"""

from __future__ import annotations

import bisect
import hashlib
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple


def _hash64(data: str) -> int:
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@lru_cache(maxsize=None)
def _ring(partition_ids: Tuple[str, ...],
          vnodes: int) -> Tuple[Tuple[int, ...], Dict[int, str]]:
    """Sorted ring points and their owners for one partition layout.

    Every deployment of a layout hashes the same virtual nodes — most of
    a cluster build's work — so this runs once per layout per process
    and rings share the result read-only.
    """
    owners: Dict[int, str] = {}
    for pid in partition_ids:
        for v in range(vnodes):
            point = _hash64(f"{pid}#{v}")
            # Collisions across 64-bit hashes are effectively impossible,
            # but resolve deterministically anyway.
            while point in owners:
                point = (point + 1) % (1 << 64)
            owners[point] = pid
    return tuple(sorted(owners)), owners


class Partitioner:
    """Interface: anything that maps a key to a partition id."""

    def partition_for(self, key: str) -> str:
        """The partition id owning ``key``."""
        raise NotImplementedError

    @property
    def partitions(self) -> List[str]:
        raise NotImplementedError


class ConsistentHashRing(Partitioner):
    """Consistent hashing over named partitions.

    Parameters
    ----------
    partition_ids:
        The partition names to place on the ring.
    vnodes:
        Virtual nodes per partition.  More virtual nodes make the key load
        more even; 64 keeps the imbalance within a few percent for the
        partition counts the paper uses (5).
    """

    def __init__(self, partition_ids: Sequence[str], vnodes: int = 64):
        if not partition_ids:
            raise ValueError("at least one partition required")
        if len(set(partition_ids)) != len(partition_ids):
            raise ValueError("duplicate partition ids")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self._partitions = list(partition_ids)
        self.vnodes = vnodes
        self._points, self._owners = _ring(tuple(partition_ids), vnodes)

    @property
    def partitions(self) -> List[str]:
        return list(self._partitions)

    def partition_for(self, key: str) -> str:
        """The partition owning ``key``."""
        h = _hash64(key)
        idx = bisect.bisect_right(self._points, h)
        if idx == len(self._points):
            idx = 0
        return self._owners[self._points[idx]]

    def group_by_partition(self, keys: Sequence[str]) -> Dict[str, List[str]]:
        """Group ``keys`` by owning partition (insertion order preserved)."""
        groups: Dict[str, List[str]] = {}
        for key in keys:
            groups.setdefault(self.partition_for(key), []).append(key)
        return groups
