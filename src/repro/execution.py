"""The ExecutionPlane registry: execution engines resolved by name.

Every layer that accepts an ``execution=`` knob
(:class:`repro.api.SimConfig`, :class:`repro.simulation.live.LiveZone`,
:class:`repro.simulation.roundsync.WireFabric`, the scenario engine,
``ChaosConfig``) resolves the name through :func:`resolve`; an
execution plane is *registered* once, here.

Every plane runs the same round-synchronous protocol round inside a
:class:`~repro.simulation.live.LiveZone` (the core entry points
``SuperPeer.process_round`` / ``MixCallManager.process_round``).
Planes differ only in how the wire image of a round is carried:

* ``wire_mode`` — how the :class:`~repro.simulation.roundsync
  .WireFabric` materializes the wire image: ``"event"`` (one
  :class:`~repro.netsim.packet.Packet` + heap event per cell through
  :meth:`~repro.netsim.link.Link.transmit` — the reference oracle),
  ``"vector"`` (one flat run table per round with aggregate chaff
  accounting — O(runs) per round, shardable across worker processes,
  DESIGN.md §13), or ``"socket"`` (the same run table rebuilt from
  real datagrams, DESIGN.md §14);
* ``supports_shards`` — whether ``shards > 1`` may be requested; the
  sharded wire plane fans round segments out to workers and merges
  results deterministically (:mod:`repro.netsim.shards`);
* ``transport`` — what physically carries the wire image: ``"sim"``
  (the in-memory :class:`~repro.simulation.roundsync.WireFabric` over
  netsim links) or ``"udp"`` (cells framed by :mod:`repro.core.wire`
  ride real UDP datagrams between per-node ``asyncio`` endpoints,
  bootstrapped by the :mod:`repro.net.introducer`).  Protocol code
  never branches on the transport — :func:`create_wire_fabric` is the
  single seam where a resolved plane becomes a concrete
  :class:`~repro.core.transport.CellTransport`.

Built-in planes: ``"event"``, ``"batch-v2"`` (the vectorized,
shardable plane) and ``"asyncio"`` (same protocol, real UDP sockets
over loopback, DESIGN.md §14).  The removed ``"batch"`` plane (one
per-link batch object per round) resolves to ``"batch-v2"`` with a
:class:`DeprecationWarning` for one release cycle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

WIRE_MODES = ("event", "vector", "socket")
TRANSPORTS = ("sim", "udp")


@dataclass(frozen=True)
class ExecutionPlane:
    """One registered execution engine.

    ``name`` is the public identifier (``SimConfig(execution=name)``,
    ``repro metrics --engine name``); the modes tell each layer how to
    run without string-matching on the name anywhere else.
    """

    name: str
    wire_mode: str
    supports_shards: bool = False
    description: str = ""
    #: What physically carries the wire image: ``"sim"`` (in-memory
    #: netsim links) or ``"udp"`` (real loopback datagrams between
    #: asyncio endpoints).
    transport: str = "sim"

    def __post_init__(self) -> None:
        if self.wire_mode not in WIRE_MODES:
            raise ValueError(f"wire_mode must be one of {WIRE_MODES}, "
                             f"not {self.wire_mode!r}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}, "
                             f"not {self.transport!r}")


@dataclass(frozen=True)
class PlaneSpec:
    """A resolved (plane, shards) request — what consumers act on."""

    plane: ExecutionPlane
    shards: int = 1

    @property
    def name(self) -> str:
        return self.plane.name

    @property
    def wire_mode(self) -> str:
        return self.plane.wire_mode

    @property
    def transport(self) -> str:
        return self.plane.transport


_REGISTRY: Dict[str, ExecutionPlane] = {}
#: Removed plane names that still resolve, for one deprecation
#: cycle, to the plane that replaced them.
_DEPRECATED_ALIASES = {"batch": "batch-v2"}


def register_plane(plane: ExecutionPlane) -> ExecutionPlane:
    """Register (or re-register) a plane under its name."""
    _REGISTRY[plane.name] = plane
    return plane


def plane_names() -> Tuple[str, ...]:
    """Registered plane names, in registration order."""
    return tuple(_REGISTRY)


def get_plane(name: str) -> ExecutionPlane:
    """Look one plane up by name; unknown names raise ``ValueError``
    listing what is registered (with a did-you-mean when close).  A
    deprecated alias warns and returns its replacement."""
    found = _REGISTRY.get(name)
    if found is not None:
        return found
    replacement = _DEPRECATED_ALIASES.get(name)
    if replacement is not None:
        warnings.warn(
            f"execution plane {name!r} was removed; it resolves to "
            f"{replacement!r}, which produces byte-identical outputs. "
            f"The alias will be removed in the next release.",
            DeprecationWarning, stacklevel=3)
        return _REGISTRY[replacement]
    import difflib
    close = difflib.get_close_matches(str(name), _REGISTRY, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    raise ValueError(
        f"unknown execution plane {name!r}; registered planes: "
        f"{', '.join(_REGISTRY)}{hint}")


def resolve(execution: str, shards: Optional[int] = None) -> PlaneSpec:
    """Resolve an ``execution=`` / ``--engine`` request to a
    :class:`PlaneSpec`, validating the shard count against the
    plane's capability."""
    plane = get_plane(execution)
    n = 1 if shards is None else int(shards)
    if n < 1:
        raise ValueError(f"shards must be >= 1, not {shards!r}")
    if n > 1 and not plane.supports_shards:
        raise ValueError(
            f"execution plane {plane.name!r} does not support "
            f"sharding; use shards=1 or a shardable plane "
            f"({', '.join(p for p in _REGISTRY if _REGISTRY[p].supports_shards) or 'none registered'})")
    return PlaneSpec(plane=plane, shards=n)


register_plane(ExecutionPlane(
    name="event", wire_mode="event",
    description="per-cell discrete events: one packet and one heap "
                "event per cell (the reference oracle)"))
register_plane(ExecutionPlane(
    name="batch-v2", wire_mode="vector",
    supports_shards=True,
    description="vectorized rounds: one flat run table per round "
                "with aggregate chaff accounting, shardable across "
                "worker processes with a deterministic merge"))
register_plane(ExecutionPlane(
    name="asyncio", wire_mode="socket",
    transport="udp",
    description="real-network plane: the same round-synchronous "
                "protocol, but every cell rides a framed UDP "
                "datagram between per-node asyncio endpoints over "
                "loopback, bootstrapped by an introducer "
                "(DESIGN.md §14)"))


def create_wire_fabric(execution: str, *, seed: int = 0,
                       interval: Optional[float] = None,
                       observer=None, shards: Optional[int] = None,
                       shard_processes: Optional[bool] = None,
                       net_processes: Optional[bool] = None):
    """The transport seam: build the concrete
    :class:`~repro.core.transport.CellTransport` for a resolved plane.

    ``"sim"`` transports get a :class:`~repro.simulation.roundsync
    .WireFabric`; ``"udp"`` transports get a :class:`~repro.net
    .transport.UdpFabric` (real loopback datagrams).  Protocol code
    (:class:`~repro.simulation.live.LiveZone`, the scenario engine,
    the bench runner) calls this instead of importing either module —
    imports happen lazily here, so the simulator never pays for the
    socket plane and vice versa.

    ``net_processes`` applies only to the UDP plane (host the receive
    endpoints in a separate worker process); ``shards`` /
    ``shard_processes`` only to shardable simulator planes.
    """
    spec = resolve(execution, shards)
    if interval is None:
        from repro.simulation.roundsync import \
            DEFAULT_ROUND_INTERVAL_S
        interval = DEFAULT_ROUND_INTERVAL_S
    if spec.transport == "udp":
        from repro.net.transport import UdpFabric
        return UdpFabric(seed=seed, interval=interval,
                         observer=observer,
                         processes=bool(net_processes))
    from repro.simulation.roundsync import WireFabric
    return WireFabric(seed=seed, interval=interval,
                      execution=spec.name, observer=observer,
                      shards=spec.shards,
                      shard_processes=shard_processes)
