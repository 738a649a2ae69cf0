"""Cluster snapshots and control frames for the asyncio deployments.

Two concerns live here because they share the wire codec:

* **Snapshots** — a serializable view of one process's replicated state
  (per-partition store contents and resolved-outcome maps) plus its
  transport counters.  :func:`snapshot_cluster` extracts one from a live
  cluster object through the registry's replica accessors;
  :func:`SnapshotAdapter` serves the merged snapshots to the *same*
  oracle adapter and functions the chaos harness uses
  (:class:`repro.chaos.oracles.OracleAdapter`, ``check_stores`` /
  ``check_decisions``), so the conformance verdict reuses the
  value-parity logic instead of reimplementing it.

* **Control frames** — the tiny orchestration vocabulary of the
  multi-process cluster (``python -m repro cluster``): address-table
  distribution, snapshot request/reply, readiness, shutdown.  Control
  dataclasses are deliberately **not** ``Message`` subclasses: they are
  runtime plumbing, not protocol traffic, so the static message graph
  (:mod:`repro.analysis.msggraph`) and ``PROTOCOL.md`` stay untouched.
  On the wire they are framed like messages but open with ``{"c":``
  instead of ``{"t":``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.chaos.oracles import OracleAdapter
from repro.runtime.wire import (
    WireError,
    decode_value,
    encode_value,
    register_extra,
)
from repro.store.kvstore import Record
from repro.systems import get

# ---------------------------------------------------------------------------
# Control frames
# ---------------------------------------------------------------------------


@register_extra
@dataclass
class CtlPeers:
    """Driver -> serve: the full ``proc -> (host, port)`` address table."""

    addresses: dict = field(default_factory=dict)


@register_extra
@dataclass
class CtlSnapshotRequest:
    """Driver -> serve: reply with your cluster snapshot."""

    reply_to: str = "driver"


@register_extra
@dataclass
class CtlSnapshotReply:
    """Serve -> driver: one process's :func:`snapshot_cluster` result."""

    proc: str = ""
    snapshot: dict = field(default_factory=dict)


@register_extra
@dataclass
class CtlShutdown:
    """Driver -> serve: tear down and exit."""

    reason: str = "done"


_CONTROL_PREFIX = b'{"c":'


def encode_control(ctl: Any) -> bytes:
    """Serialize a control dataclass (framing is the caller's job)."""
    payload = encode_value(ctl)
    if not (isinstance(payload, dict) and "__dc" in payload):
        raise WireError(f"not a registered control dataclass: {ctl!r}")
    envelope = {"c": payload["__dc"], "f": payload["f"]}
    return json.dumps(envelope, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def is_control(data: bytes) -> bool:
    """Whether a frame is a control frame (vs. a protocol message)."""
    return data.startswith(_CONTROL_PREFIX)


def decode_control(data: bytes) -> Any:
    """Inverse of :func:`encode_control`."""
    try:
        envelope = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed control frame: {exc}") from None
    if not isinstance(envelope, dict) or "c" not in envelope:
        raise WireError("control frame has no type")
    return decode_value({"__dc": envelope["c"], "f": envelope.get("f", {})})


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def _store_contents(store) -> Dict[str, Tuple[Any, int]]:
    return {key: (record.value, record.version)
            for key, record in sorted(store.items())}


def snapshot_cluster(system: str, cluster: Any) -> dict:
    """Serializable replicated state of this process's share of ``cluster``.

    Shape (all wire-encodable)::

        {"stores":   {node_id: {pid: {key: (value, version)}}},
         "resolved": {node_id: {pid: {TID: "commit"|"abort"}}},
         "sent_by_type": {message_type: count}}
    """
    row = get(system)
    stores: Dict[str, dict] = {}
    resolved: Dict[str, dict] = {}
    for pid in cluster.partition_ids:
        for node_id in cluster.directory.lookup(pid).replicas:
            host = cluster.servers.get(node_id)
            if host is None:  # hosted by another process
                continue
            stores.setdefault(node_id, {})[pid] = _store_contents(
                row.store(host, pid))
            resolved.setdefault(node_id, {})[pid] = row.resolved(host, pid)
    network = cluster.network
    return {
        "stores": stores,
        "resolved": resolved,
        "sent_by_type": dict(getattr(network, "sent_by_type", {})),
    }


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Union the per-process snapshots of one deployment."""
    merged: dict = {"stores": {}, "resolved": {}, "sent_by_type": {}}
    for snap in snapshots:
        for node_id, by_pid in snap.get("stores", {}).items():
            merged["stores"][node_id] = by_pid
        for node_id, by_pid in snap.get("resolved", {}).items():
            merged["resolved"][node_id] = by_pid
        for name, count in snap.get("sent_by_type", {}).items():
            merged["sent_by_type"][name] = \
                merged["sent_by_type"].get(name, 0) + count
    return merged


class _SnapshotStore:
    """Duck-typed read-only store over snapshotted ``{key: (v, ver)}``."""

    def __init__(self, contents: Dict[str, Tuple[Any, int]]):
        self._contents = contents

    def read(self, key: str) -> Record:
        return Record(*self._contents.get(key, (None, 0)))


def SnapshotAdapter(merged: dict, ring: Any, directory: Any,
                    partition_ids: Sequence[str],
                    clients: Optional[Sequence[Any]] = None
                    ) -> OracleAdapter:
    """The oracle adapter over merged snapshots.

    ``ring``/``directory`` come from any process's cluster build — the
    builders populate them identically everywhere.  ``clients`` are the
    driver's live client objects (the driver hosts every client, so the
    liveness-side accessors need no snapshotting).
    """
    stores, resolved = merged["stores"], merged["resolved"]
    return OracleAdapter(
        ring, directory, partition_ids, clients or (),
        store=lambda node_id, pid: _SnapshotStore(
            stores.get(node_id, {}).get(pid, {})),
        resolved=lambda node_id, pid: resolved.get(node_id, {}).get(pid, {}))
