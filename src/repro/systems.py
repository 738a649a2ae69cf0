"""The system registry: one row per evaluated system.

The paper (§6) compares Carousel Basic, Carousel Fast and TAPIR; this
repo adds a layered 2PC-over-Raft baseline.  Every harness resolves
system names and builds deployments here.  A row holds the canonical
name, its aliases, the figure label, the static-graph protocols its
traffic may use, its cluster class, and the cluster keywords for each
timing profile.  The only other per-system difference — a replica's
store and resolved map for a partition — is the cluster class's
``store_of``/``resolved_of`` pair, exposed as :attr:`System.store` and
:attr:`System.resolved`.

Profiles: ``paper`` keeps the classes' defaults, sized for the paper's
WAN deployment (trace and e2e runs use it on their own
:class:`~repro.bench.cluster.DeploymentSpec`); ``chaos`` and
``conform`` are :class:`Timing` values.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from repro.bench.cluster import (
    CarouselCluster,
    DeploymentSpec,
    LayeredCluster,
    TapirCluster,
)
from repro.core.backoff import RetryPolicy
from repro.core.config import BASIC, FAST, CarouselConfig
from repro.raft.node import RaftConfig
from repro.tapir.config import TapirConfig


@dataclass(frozen=True)
class Timing:
    """A fault-tolerance timing profile.

    Retransmission timers back off ×2 per attempt up to the cap with
    10 % deterministic jitter; Raft heartbeats every 100 ms; Carousel
    clients heartbeat their coordinator every 500 ms, three misses
    allowed.
    """

    #: Raft election timeout window (min, max).
    election_ms: Tuple[float, float]
    #: Retransmission base and cap.
    retry_ms: Tuple[float, float]
    #: TAPIR's wait for a unanimous fast quorum.
    tapir_fast_path_ms: float

    def raft(self) -> RaftConfig:
        """Raft timing for every consensus group."""
        return RaftConfig(election_timeout_min_ms=self.election_ms[0],
                          election_timeout_max_ms=self.election_ms[1],
                          heartbeat_interval_ms=100.0)

    def retry(self) -> RetryPolicy:
        """The schedule every retransmission timer shares."""
        return RetryPolicy(base_ms=self.retry_ms[0], multiplier=2.0,
                           max_ms=self.retry_ms[1], jitter_fraction=0.1)

    def backoff_fields(self) -> Dict[str, Any]:
        """:meth:`retry`'s growth, cap and jitter as the fields Carousel
        and TAPIR configs share."""
        return dict(retry_backoff_multiplier=2.0,
                    retry_backoff_max_ms=self.retry_ms[1],
                    retry_jitter_fraction=0.1)


#: Timing per profile; ``paper`` (``None``) keeps the classes' defaults.
#: ``chaos`` resolves faults within a short virtual window; ``conform``
#: keeps every timer far above any round trip, so none fires in a
#: healthy run on either runtime.
PROFILES: Dict[str, Optional[Timing]] = {
    "paper": None,
    "chaos": Timing((400.0, 800.0), (800.0, 6400.0), 250.0),
    "conform": Timing((1500.0, 3000.0), (3000.0, 12_000.0), 2000.0),
}

#: ``configure(timing, tapir_fast_path_ms)`` -> cluster keywords; the
#: TAPIR fast-path override is ignored by systems without one.
Configure = Callable[[Optional[Timing], Optional[float]], Dict[str, Any]]


def _carousel(mode: str) -> Configure:
    def configure(timing, tapir_fast_path_ms):
        if timing is None:
            return {"config": CarouselConfig(mode=mode)}
        return {"config": CarouselConfig(
            mode=mode, heartbeat_interval_ms=500.0, heartbeat_misses=3,
            client_retry_ms=timing.retry_ms[0], raft=timing.raft(),
            **timing.backoff_fields())}
    return configure


def _layered(timing, tapir_fast_path_ms):
    if timing is None:
        return {}
    return {"raft_config": timing.raft(), "retry_policy": timing.retry()}


def _tapir(timing, tapir_fast_path_ms):
    fields: Dict[str, Any] = {}
    if timing is not None:
        fields = dict(fast_path_timeout_ms=timing.tapir_fast_path_ms,
                      retry_ms=timing.retry_ms[0],
                      **timing.backoff_fields())
    if tapir_fast_path_ms is not None:
        fields["fast_path_timeout_ms"] = tapir_fast_path_ms
    return {"config": TapirConfig(**fields)}


@dataclass(frozen=True)
class System:
    """One evaluated system."""

    name: str
    #: Display name in the paper's figures.
    label: str
    aliases: Tuple[str, ...]
    #: Protocols of :mod:`repro.analysis.msggraph` its traffic may use.
    protocols: FrozenSet[str]
    cluster: type
    configure: Configure

    @property
    def consensus(self) -> bool:
        """Whether each partition is a Raft group with a leader (TAPIR's
        replicas are leaderless and never talk to each other)."""
        return "raft" in self.protocols

    @property
    def store(self) -> Callable[[Any, str], Any]:
        """``store(host, pid)``: a replica's store for a partition."""
        return self.cluster.store_of

    @property
    def resolved(self) -> Callable[[Any, str], Dict[Any, str]]:
        """``resolved(host, pid)``: a replica's ``{tid: "commit" |
        "abort"}`` map for a partition."""
        return self.cluster.resolved_of


_CAROUSEL = frozenset({"carousel", "raft"})

#: Canonical name -> row, in registry order.
REGISTRY: Dict[str, System] = {row.name: row for row in (
    System("carousel-basic", "Carousel Basic", (BASIC,), _CAROUSEL,
           CarouselCluster, _carousel(BASIC)),
    System("carousel-fast", "Carousel Fast", (FAST, "carousel"),
           _CAROUSEL, CarouselCluster, _carousel(FAST)),
    System("layered", "Layered 2PC/Raft", (),
           frozenset({"layered", "raft"}), LayeredCluster, _layered),
    System("tapir", "TAPIR", (), frozenset({"tapir"}), TapirCluster,
           _tapir),
)}

#: Every canonical system name, registry order.
SYSTEMS: Tuple[str, ...] = tuple(REGISTRY)

#: The systems the paper's figures compare, in the figures' order.
FIGURE_SYSTEMS: Tuple[str, ...] = ("tapir", "carousel-basic",
                                   "carousel-fast")

_LOOKUP: Dict[str, System] = {**REGISTRY, **{
    alias: row for row in REGISTRY.values() for alias in row.aliases}}

#: Every accepted spelling: canonical names, then aliases.
NAMES: Tuple[str, ...] = tuple(_LOOKUP)


def get(name: str) -> System:
    """The row for a canonical name or alias."""
    try:
        return _LOOKUP[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; expected one of "
                         f"{', '.join(NAMES)}") from None


def canonical(name: str) -> str:
    """Resolve a system name or alias to its canonical form."""
    return get(name).name


def build(name: str, spec: Optional[DeploymentSpec] = None,
          profile: str = "paper", runtime=None,
          tapir_fast_path_ms: Optional[float] = None) -> Any:
    """A deployment of ``name`` on ``spec`` under ``profile`` (see
    :data:`PROFILES`), on ``runtime`` (``None``: the DES)."""
    row = get(name)
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of "
                         f"{', '.join(PROFILES)}")
    return row.cluster(spec, runtime=runtime, **row.configure(
        PROFILES[profile], tapir_fast_path_ms))


def cli_system(value: str) -> str:
    """``argparse`` type for one system name (canonical on success)."""
    try:
        return canonical(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cli_systems(value: str) -> Tuple[str, ...]:
    """``argparse`` type for ``all`` or a comma-separated system list."""
    if value == "all":
        return SYSTEMS
    return tuple(cli_system(part.strip())
                 for part in value.split(",") if part.strip())
