"""Span recording around the program's public functions, from outside.

A :class:`SpanRecorder` replaces class attributes and module functions
of ``repro`` with thin wrappers while it is installed, and restores the
originals when it is removed.  Nothing under ``src/`` is edited: the
wrappers live in the benchmark process only.

Each wrapped call records one span: name, start, end, parent span and
the transaction id when the call's message carries one.  Spans nest
strictly because every wrapped function is synchronous (no ``await``
inside), on the DES and on the asyncio loop alike.  A span's *self time*
is its duration minus the part its child spans cover; it is accumulated
as spans close, and the raw spans are kept in compact arrays until
:meth:`SpanRecorder.write` saves them at the end of the run.

The wrappers read ``time.perf_counter`` and nothing else, so they never
touch an RNG or the event queue: a traced DES run executes exactly the
same events as an untraced one (the harness checks this).
"""

from __future__ import annotations

import json
import os
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import recovery as core_recovery
from repro.core.client import CarouselClient
from repro.core.coordinator import CoordinatorComponent
from repro.core.participant import PartitionComponent
from repro.raft.node import RaftMember
from repro.runtime import aio as runtime_aio
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.tapir.client import TapirClient
from repro.tapir.replica import TapirReplica
from repro.wal.log import WriteAheadLog
from repro.workloads.retwis import RetwisWorkload
from repro.workloads.ycsbt import YcsbTWorkload


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``owner.attr`` recorded as span ``name``.

    ``msg_arg`` is the positional index of a message argument whose
    ``tid`` (if any) labels the span.
    """

    owner: Any
    attr: str
    name: str
    msg_arg: Optional[int] = None


def _handlers(owner: Any) -> List[Target]:
    """Every ``on_*`` handler of ``owner`` plus its state-machine
    ``apply``, named ``<Class>.<attr>``."""
    attrs = sorted(a for a in vars(owner) if a.startswith("on_"))
    return [Target(owner, attr, f"{owner.__name__}.{attr}", msg_arg=1)
            for attr in attrs + ["apply"]]


#: Span names whose calls the recorder also counts by content.
SEND = "Network.send"
ENCODE = "wire.encode_message"

#: Every wrapped boundary.  The span name is ``<Class>.<method>`` (or
#: ``<module>.<function>``); :data:`LAYERS` groups names into layers.
TARGETS: Tuple[Target, ...] = tuple(
    [Target(Kernel, "run", "Kernel.run"),
     Target(Network, "send", SEND, msg_arg=3),
     Target(Node, "enqueue", "Node.enqueue", msg_arg=1),
     Target(Node, "restart", "Node.restart"),
     Target(RaftMember, "handle", "RaftMember.handle", msg_arg=1),
     Target(RaftMember, "propose", "RaftMember.propose", msg_arg=1),
     Target(CarouselClient, "submit", "CarouselClient.submit"),
     Target(CarouselClient, "handle_message",
            "CarouselClient.handle_message", msg_arg=1)]
    + _handlers(CoordinatorComponent)
    + _handlers(PartitionComponent)
    + [Target(core_recovery, "run_participant_recovery",
              "recovery.run_participant_recovery"),
       Target(TapirClient, "submit", "TapirClient.submit"),
       Target(TapirClient, "handle_message", "TapirClient.handle_message",
              msg_arg=1),
       Target(TapirReplica, "handle_message",
              "TapirReplica.handle_message", msg_arg=1),
       Target(WriteAheadLog, "append", "WriteAheadLog.append"),
       Target(WriteAheadLog, "fsync", "WriteAheadLog.fsync"),
       Target(RetwisWorkload, "next_spec", "RetwisWorkload.next_spec"),
       Target(YcsbTWorkload, "next_spec", "YcsbTWorkload.next_spec"),
       # runtime.aio imports the codec by name, so wrap it there.
       Target(runtime_aio, "encode_message", ENCODE, msg_arg=0),
       Target(runtime_aio, "decode_message", "wire.decode_message")])


#: Layer -> the span names whose self time it owns.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.kernel": ("Kernel.run",),
    "sim.network.send": ("Network.send",),
    "sim.node.enqueue": ("Node.enqueue",),
    "raft.handle": ("RaftMember.handle",),
    "raft.propose": ("RaftMember.propose",),
    "core.client": ("CarouselClient.submit",
                    "CarouselClient.handle_message"),
    "core.coordinator": tuple(t.name for t in TARGETS
                              if t.owner is CoordinatorComponent),
    "core.participant": tuple(t.name for t in TARGETS
                              if t.owner is PartitionComponent),
    "core.recovery": ("recovery.run_participant_recovery",),
    "tapir.client": ("TapirClient.submit", "TapirClient.handle_message"),
    "tapir.replica": ("TapirReplica.handle_message",),
    "wal": ("WriteAheadLog.append", "WriteAheadLog.fsync"),
    "wal.restart": ("Node.restart",),
    "workloads.gen": ("RetwisWorkload.next_spec",
                      "YcsbTWorkload.next_spec"),
    "runtime.wire.encode": ("wire.encode_message",),
    "runtime.wire.decode": ("wire.decode_message",),
}


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tid_id = array("i")
        self.tids: List[str] = []
        self._tid_ids: Dict[Any, int] = {}
        #: Open spans: ``[span_index, seconds covered by children]``.
        self._stack: List[List] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.root_s = 0.0
        #: Counts taken from the arguments of :data:`SEND` calls and the
        #: results of :data:`ENCODE` calls.
        self.sent_by_type: Dict[str, int] = {}
        self.append_messages = 0
        self.append_entries = 0
        self.encoded_bytes = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _tid_index(self, msg: Any) -> int:
        tid = getattr(msg, "tid", None)
        if tid is None:
            return -1
        index = self._tid_ids.get(tid)
        if index is None:
            index = self._tid_ids[tid] = len(self.tids)
            self.tids.append(str(tid))
        return index

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s[name] = 0.0
            self.calls[name] = 0
        name_id = self._name_ids[name]
        msg_arg = target.msg_arg
        counts_sends = name == SEND
        counts_bytes = name == ENCODE
        sent_by_type = self.sent_by_type
        clock = time.perf_counter
        stack = self._stack
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, tid_ids = self.parent, self.tid_id
        self_s, calls = self.self_s, self.calls
        recorder = self

        def wrapper(*args, **kwargs):
            if counts_sends:
                msg = args[3]
                type_name = msg.type_name
                sent_by_type[type_name] = sent_by_type.get(type_name, 0) + 1
                if type_name == "AppendEntries":
                    recorder.append_messages += 1
                    recorder.append_entries += len(msg.entries)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            tid_ids.append(recorder._tid_index(args[msg_arg])
                           if msg_arg is not None and len(args) > msg_arg
                           else -1)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            begin = clock()
            starts.append(begin)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish = clock()
                ends[index] = finish
                stack.pop()
                duration = finish - begin
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    recorder.root_s += duration
            if counts_bytes:
                recorder.encoded_bytes += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target (idempotent per recorder)."""
        if self._saved:
            return
        for target in TARGETS:
            original = target.owner.__dict__[target.attr]
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(target, original))

    def remove(self) -> None:
        """Restore every original attribute."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer of :data:`LAYERS`."""
        return {layer: sum(self.self_s.get(n, 0.0) for n in names)
                for layer, names in LAYERS.items()}

    def layer_calls(self) -> Dict[str, int]:
        """Wrapped calls per layer of :data:`LAYERS`."""
        return {layer: sum(self.calls.get(n, 0) for n in names)
                for layer, names in LAYERS.items()}

    def __len__(self) -> int:
        return len(self.start)

    def write(self, directory: str, stem: str) -> str:
        """Save the spans as ``<stem>.json`` (names, tids, layout) plus
        one raw column file per array; returns the JSON path."""
        os.makedirs(directory, exist_ok=True)
        columns = {"name_id": self.name_id, "start": self.start,
                   "end": self.end, "parent": self.parent,
                   "tid_id": self.tid_id}
        layout = {}
        for column, values in columns.items():
            path = os.path.join(directory, f"{stem}.{column}.bin")
            with open(path, "wb") as fh:
                values.tofile(fh)
            layout[column] = {"file": os.path.basename(path),
                              "typecode": values.typecode}
        meta = os.path.join(directory, f"{stem}.json")
        with open(meta, "w") as fh:
            json.dump({"spans": len(self), "names": self.names,
                       "tids": self.tids, "columns": layout}, fh)
        return meta
