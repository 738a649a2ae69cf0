"""Run descriptors and content digests for the sweep executor.

A :class:`RunSpec` is a picklable, fully-seeded description of one
independent run: its *kind* (which executable recipe to apply, see
:mod:`repro.sweep.kinds`) and a canonical-JSON *payload* of parameters.
Because the payload is canonical (sorted keys, compact separators), two
specs built from the same parameters — in any construction order — are
equal, hash equal, and digest equal.

The cache key of a run is ``sha256(kind, payload, code fingerprint)``.
The fingerprint covers exactly the source files that can change a run's
*result* (simulator, protocols, workloads, cluster construction, the
run recipes themselves) and deliberately excludes report rendering and
CLI plumbing, so editing only plotting code keeps every cached record
valid while any change to simulated behaviour invalidates the lot.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

#: Source files (relative to the ``repro`` package root, POSIX form)
#: whose contents feed the code fingerprint.  A prefix ending in ``/``
#: covers a subpackage; anything else must match a file exactly.
CODE_PREFIXES = (
    "sim/", "core/", "tapir/", "layered/", "raft/", "store/",
    "workloads/", "chaos/", "txn.py", "systems.py",
    "bench/cluster.py", "bench/runner.py",
    "perf/suites.py", "sweep/kinds.py",
)

_FINGERPRINTS: Dict[str, str] = {}


def canonical_json(value: Any) -> str:
    """``value`` as deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _covered(rel_posix: str) -> bool:
    for prefix in CODE_PREFIXES:
        if prefix.endswith("/"):
            if rel_posix.startswith(prefix):
                return True
        elif rel_posix == prefix:
            return True
    return False


def code_fingerprint(root: Optional[Path] = None) -> str:
    """Digest of every result-relevant source file plus the package
    version.  Cached per root for the life of the process (the tree does
    not change under a running sweep)."""
    if root is None:
        import repro

        root = Path(repro.__file__).parent
    key = str(root)
    cached = _FINGERPRINTS.get(key)
    if cached is not None:
        return cached
    import repro

    digest = hashlib.sha256()
    digest.update(repro.__version__.encode("utf-8"))
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if not _covered(rel):
            continue
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    fingerprint = digest.hexdigest()
    _FINGERPRINTS[key] = fingerprint
    return fingerprint


@dataclass(frozen=True)
class RunSpec:
    """One independent, fully-seeded run in a sweep.

    ``label`` is display-only: it names the run in progress output and
    failure reports but takes no part in equality-relevant state (the
    payload) or the cache digest.
    """

    kind: str
    payload: str
    label: str = ""

    @classmethod
    def make(cls, kind: str, params: Dict[str, Any],
             label: str = "") -> "RunSpec":
        """Build a spec from a parameter mapping (canonicalized)."""
        return cls(kind=kind, payload=canonical_json(params), label=label)

    def params(self) -> Dict[str, Any]:
        """The decoded parameter mapping."""
        return json.loads(self.payload)

    def digest(self, fingerprint: str) -> str:
        """Stable cache key: sha256 over kind, payload, and the code
        fingerprint."""
        digest = hashlib.sha256()
        for part in (self.kind, self.payload, fingerprint):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()
