"""The per-layer ledger: which entry points the traced run wraps, and
the per-layer metrics it folds the spans into.

Each layer is named after the ``repro`` module it times.  Spans carry
the layer name, so a layer's self time is the sum of the self times
of its spans: time inside one of its entry points minus time inside
any *other* wrapped entry point called from there.  Counters are
taken at the same boundaries.  Which end-to-end metric each
per-layer metric should move, on which workload, is tabled in the
benchmark's README.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from perfbench.trace import Tracer

#: The root span around one traced run; its self time is the part of
#: the run no layer span covers.
ROOT = "bench.run"
#: Phase spans (set-up, warm-up, ops) inside the root: like the root,
#: their self time is time no layer span covers.
PHASES = ("bench.setup", "bench.warm_up", "bench.ops")
#: Drivers and constructors that belong to no layer of the ledger but
#: hold time worth naming: wrapped in spans of their own whose self
#: time counts as unattributed, so the report can say where it sits.
GLUE = [
    ("repro.obs.prof.bench", "run_backbone"),
    ("repro.scenario.engine", "execute"),
    ("repro.simulation.testbed", "build_testbed"),
    ("repro.simulation.testbed", "HerdTestbed.add_client"),
    ("repro.simulation.live", "LiveZone.__init__"),
]
UNATTRIBUTED = (ROOT,) + PHASES + tuple(
    f"unattributed.{qualname}" for _, qualname in GLUE)
#: Spans around the benchmark's own checking code between ops; they
#: are excluded from the ledger entirely.
HARNESS = "bench.harness"


def _arg(index: int, name: str):
    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs[name]
    return get


_plaintext = _arg(2, "plaintext")
_circuit = _arg(0, "circuit")
_payload = _arg(2, "payload")


def _one(args, kwargs, result, raised):
    return 1


def _ok(args, kwargs, result, raised):
    return 0 if raised else 1


def _cells_batch(args, kwargs, result, raised):
    return len(_arg(2, "batch")(args, kwargs))


def _cells_runs(args, kwargs, result, raised):
    return sum(_arg(5, "counts")(args, kwargs))


def _cells_round_runs(args, kwargs, result, raised):
    return sum(_arg(4, "counts")(args, kwargs))


# (layer, module, qualified name, {counter: callback})
ENTRY_POINTS: List[Tuple[str, str, str, Dict]] = [
    ("crypto.chacha20", "repro.crypto.chacha20", "chacha20_encrypt", {
        "crypto.chacha20.calls": _one,
        "crypto.chacha20.bytes":
            lambda a, k, r, e: len(_plaintext(a, k))}),
    ("crypto.chacha20", "repro.crypto.chacha20",
     "ChaCha20Poly1305.encrypt", {}),
    ("crypto.chacha20", "repro.crypto.chacha20",
     "ChaCha20Poly1305.decrypt", {}),
    ("crypto.asym", "repro.crypto.x25519", "X25519PrivateKey.exchange",
     {"crypto.asym.ops": _one}),
    ("crypto.asym", "repro.crypto.x25519", "x25519_base",
     {"crypto.asym.ops": _one}),
    ("crypto.asym", "repro.crypto.ed25519", "SigningKey.sign",
     {"crypto.asym.ops": _one}),
    ("crypto.asym", "repro.crypto.ed25519", "VerifyKey.verify",
     {"crypto.asym.ops": _one}),
    # Layers are counted where a stream pass happens: the composite
    # helpers delegate to unwrap_layer, which counts its own layer.
    ("crypto.onion", "repro.crypto.onion", "wrap_onion", {
        "crypto.onion.layers": lambda a, k, r, e: len(_circuit(a, k))}),
    ("crypto.onion", "repro.crypto.onion", "unwrap_layer",
     {"crypto.onion.layers": _one}),
    ("crypto.onion", "repro.crypto.onion", "unwrap_onion", {}),
    ("crypto.onion", "repro.crypto.onion", "wrap_backward", {}),
    ("crypto.onion", "repro.crypto.onion", "unwrap_backward", {
        "crypto.onion.layers": lambda a, k, r, e: len(_circuit(a, k))}),
    ("core.client.upstream", "repro.core.client",
     "HerdClient.upstream_packet", {
         "core.client.upstream.calls": _one,
         "core.client.upstream.payload_cells":
             lambda a, k, r, e: int(_payload(a, k) is not None)}),
    ("core.superpeer", "repro.core.superpeer", "SuperPeer.process_round",
     {}),
    ("core.superpeer", "repro.core.superpeer",
     "SuperPeer.combine_upstream", {}),
    ("core.superpeer", "repro.core.superpeer",
     "SuperPeer.broadcast_downstream", {}),
    ("core.coding.xor", "repro.core.network_coding", "xor_bytes", {
        "core.coding.xor.bytes":
            lambda a, k, r, e: len(a[0]) * (len(a) - 1)}),
    ("core.coding.decode", "repro.core.network_coding", "decode_round",
     {}),
    ("core.coding.decode", "repro.core.network_coding",
     "ChaffPredictor.predict", {}),
    ("core.coding.decode", "repro.core.channel", "decode_manifest", {}),
    ("core.callmanager", "repro.core.callmanager",
     "MixCallManager.process_round", {}),
    ("core.callmanager", "repro.core.callmanager",
     "MixCallManager.downstream_round", {}),
    ("core.agent", "repro.core.callmanager",
     "ClientCallAgent.process_downstream", {"core.agent.calls": _one}),
    ("core.join", "repro.core.join", "join_zone", {
        "core.join.calls": _one, "core.join.succeeded": _ok}),
    ("core.join", "repro.core.join", "join_with_retries", {}),
    ("core.rendezvous", "repro.core.rendezvous",
     "RendezvousService.establish_call", {}),
    ("core.rendezvous", "repro.core.rendezvous",
     "RendezvousService.build_standing_circuit", {}),
    ("core.rendezvous", "repro.core.rendezvous",
     "RendezvousService.register_callee", {}),
    ("simulation.live", "repro.simulation.live", "LiveZone.step", {}),
    ("simulation.wire", "repro.simulation.roundsync", "WireFabric.emit",
     {"simulation.wire.emits": _one}),
    ("simulation.wire", "repro.simulation.roundsync",
     "WireFabric.emit_repeated", {"simulation.wire.emits": _one}),
    ("simulation.wire", "repro.simulation.roundsync",
     "WireFabric.flush_round", {}),
    ("simulation.wire", "repro.simulation.roundsync",
     "WireFabric.finalize", {}),
    ("netsim.loop", "repro.netsim.engine", "EventLoop.step", {
        "netsim.loop.events": lambda a, k, r, e: int(bool(r))}),
    ("faults", "repro.faults.injector", "FaultInjector.apply",
     {"faults.events": _one}),
    ("faults", "repro.faults.injector", "FaultInjector.revert",
     {"faults.events": _one}),
    ("obs.scope", "repro.obs.instrument", "Herdscope.snapshot", {}),
]

#: Every observer implementation's tap methods (the wiretap, the
#: backbone tally, the reference tally tap and herdscope's link tap).
_TAP_CLASSES = [
    ("repro.netsim.observer", "LinkObserver"),
    ("repro.netsim.taps", "TallyTap"),
    ("repro.obs.prof.bench", "TallyObserver"),
    ("repro.obs.instrument", "LinkTap"),
]
_TAP_CELLS = {
    "record": _one,
    "record_batch": _cells_batch,
    "record_runs": _cells_runs,
    "record_round_runs": _cells_round_runs,
}
ENTRY_POINTS += [
    ("netsim.taps", module, f"{cls}.{method}",
     {"netsim.taps.calls": _one, "netsim.taps.cells": cells,
      **({"netsim.taps.record_cells": _one} if method == "record"
         else {})})
    for module, cls in _TAP_CLASSES
    for method, cells in _TAP_CELLS.items()]

#: Herdscope's hook objects: every public method is an obs.scope span.
_OBS_HOOKS = ["LoopHook", "SuperPeerHook", "CallManagerHook",
              "FaultHook", "LiveZoneHook"]

#: The scenario engine's per-round tick is a closure inside
#: ``execute``; it is wrapped when ``execute`` schedules it.
TICK_QUALNAME = "execute.<locals>.tick"


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Wrap every entry point of the ledger in ``tracer`` spans."""
    glue = [(f"unattributed.{qualname}", module_name, qualname, {})
            for module_name, qualname in GLUE]
    for layer, module_name, qualname, counters in ENTRY_POINTS + glue:
        owner, attr = _resolve(module_name, qualname)
        if isinstance(owner, type):
            # Tap classes implement different subsets of the tiers.
            if attr in owner.__dict__:
                tracer.wrap_method(owner, attr, layer, counters)
        else:
            tracer.wrap_function(module_name, attr, layer, counters)
    instrument = importlib.import_module("repro.obs.instrument")
    for hook in _OBS_HOOKS:
        cls = getattr(instrument, hook)
        for attr, value in list(vars(cls).items()):
            if callable(value) and not attr.startswith("_"):
                tracer.wrap_method(cls, attr, "obs.scope")
    _wrap_tick(tracer)


def _wrap_tick(tracer: Tracer) -> None:
    engine = importlib.import_module("repro.netsim.engine")
    loop_cls = engine.EventLoop
    original = loop_cls.__dict__["schedule_periodic"]

    def schedule_periodic(self, interval, callback, start_delay=None):
        if getattr(callback, "__qualname__", "") == TICK_QUALNAME:
            callback = tracer.wrap("scenario.tick", callback)
        return original(self, interval, callback, start_delay)

    tracer.replace(loop_cls, "schedule_periodic", schedule_periodic)


# --------------------------------------------------------------------------
# the report
# --------------------------------------------------------------------------

#: Layer self-time metrics: metric name -> span name.
SELF_TIME = {
    "crypto.chacha20.self_s": "crypto.chacha20",
    "crypto.asym.self_s": "crypto.asym",
    "crypto.onion.self_s": "crypto.onion",
    "core.client.upstream.self_s": "core.client.upstream",
    "core.superpeer.self_s": "core.superpeer",
    "core.coding.xor.self_s": "core.coding.xor",
    "core.coding.decode.self_s": "core.coding.decode",
    "core.callmanager.self_s": "core.callmanager",
    "core.agent.self_s": "core.agent",
    "core.join.self_s": "core.join",
    "core.rendezvous.self_s": "core.rendezvous",
    "simulation.live.self_s": "simulation.live",
    "simulation.wire.self_s": "simulation.wire",
    "netsim.taps.self_s": "netsim.taps",
    "netsim.loop.self_s": "netsim.loop",
    "obs.scope.self_s": "obs.scope",
    "scenario.tick.self_s": "scenario.tick",
    "faults.self_s": "faults",
}

#: Counter metrics reported as they were counted.
COUNTS = {
    "crypto.chacha20.calls": "count",
    "crypto.chacha20.bytes": "bytes",
    "crypto.asym.ops": "count",
    "crypto.onion.layers": "count",
    "core.client.upstream.calls": "count",
    "core.coding.xor.bytes": "bytes",
    "core.agent.calls": "count",
    "core.join.calls": "count",
    "simulation.wire.emits": "count",
    "netsim.taps.calls": "count",
    "netsim.loop.events": "count",
    "faults.events": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Fold a finished traced run into the per-layer metrics.

    ``bench.attributed_share`` is the share of the run's wall time
    (harness spans excluded) that falls inside some layer span."""
    own = tracer.self_time_by_name()
    counts = tracer.counts
    out: Dict[str, Tuple[float, str]] = {}
    for metric, span in SELF_TIME.items():
        out[metric] = (own.get(span, 0.0), "s")
    for metric, unit in COUNTS.items():
        out[metric] = (float(counts.get(metric, 0)), unit)
    out["core.coding.payload_ratio"] = (_ratio(
        counts.get("core.client.upstream.payload_cells", 0),
        counts.get("core.client.upstream.calls", 0)), "fraction")
    out["core.join.retry_success_ratio"] = (_ratio(
        counts.get("core.join.succeeded", 0),
        counts.get("core.join.calls", 0)), "fraction")
    out["netsim.taps.fallback_ratio"] = (_ratio(
        counts.get("netsim.taps.record_cells", 0),
        counts.get("netsim.taps.cells", 0)), "fraction")
    layered = sum(t for name, t in own.items()
                  if name not in UNATTRIBUTED + (HARNESS,))
    unattributed = sum(own.get(name, 0.0) for name in UNATTRIBUTED)
    out["bench.attributed_share"] = (
        _ratio(layered, layered + unattributed), "fraction")
    out["bench.unattributed_s"] = (unattributed, "s")
    return out
