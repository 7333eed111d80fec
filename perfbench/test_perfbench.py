"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They cover the span self-time arithmetic, the wrapping and unwrapping
of entry points, the correctness checks (that they pass, and that a
wrong pin makes them fail), the driver contract of ``run.py``'s
output, and the determinism of everything the traced run counts:
every count and ratio must be identical between traced and untraced
runs and between two separate processes.  The process-level tests run
the real CLI and take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run, workloads  # noqa: E402
from perfbench.trace import Span, Tracer, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- span arithmetic ---------------------------------------------------------

def test_self_time_nested_and_sibling_spans():
    # root [0, 10] ── a [1, 6] ── b [2, 3]
    #              │           └─ c [4, 5.5]
    #              └─ d [7, 9]
    spans = [Span("root", 0, 10, -1), Span("a", 1, 6, 0),
             Span("b", 2, 3, 1), Span("c", 4, 5.5, 1),
             Span("d", 7, 9, 0)]
    assert self_times(spans) == [3.0, 2.5, 1.0, 1.5, 2.0]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_tracer_records_parents_and_same_layer_nesting():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2

    traced_inner = tracer.wrap("crypto", inner)

    def outer():
        clock.now += 1
        traced_inner()
        traced_inner()
        clock.now += 3

    traced_outer = tracer.wrap("core", outer, {"core.calls":
                                               lambda a, k, r, e: 1})
    root = tracer.open("root")
    traced_outer()
    clock.now += 4
    traced_outer()
    tracer.close(root)
    assert [Span(*s).parent for s in tracer.spans] == \
        [-1, 0, 1, 1, 0, 4, 4]
    own = tracer.self_time_by_name()
    assert own == {"root": 4.0, "core": 8.0, "crypto": 8.0}
    assert tracer.counts["core.calls"] == 2


def test_counters_run_when_the_call_raises():
    tracer = Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    traced = tracer.wrap("join", boom, {"ok": layers._ok,
                                        "calls": layers._one})
    with pytest.raises(KeyError):
        traced()
    assert tracer.counts == {"ok": 0, "calls": 1}
    assert len(tracer.spans) == 1 and tracer.spans[0][0] == "join"


def test_wrap_function_covers_every_binding_site_and_uninstalls():
    import repro.core.channel as channel
    import repro.core.network_coding as coding
    import repro.crypto.chacha20 as chacha

    original = chacha.chacha20_encrypt
    tracer = Tracer()
    sites = tracer.wrap_function("repro.crypto.chacha20",
                                 "chacha20_encrypt", "crypto.chacha20")
    assert sites >= 4  # chacha20, onion, network_coding, channel, ...
    assert coding.chacha20_encrypt is channel.chacha20_encrypt \
        is chacha.chacha20_encrypt is not original
    coding.make_chaff_packet(coding_key(), 0)
    assert tracer.calls_by_name() == {"crypto.chacha20": 1}
    tracer.uninstall()
    assert coding.chacha20_encrypt is original
    assert chacha.chacha20_encrypt is original


def coding_key():
    from repro.crypto.keys import SessionKey
    return SessionKey(b"\x01" * 32)


def test_install_wraps_the_whole_ledger_and_restores_it():
    from repro.simulation.live import LiveZone
    step = LiveZone.__dict__["step"]
    tracer = Tracer()
    layers.install(tracer)
    assert LiveZone.__dict__["step"] is not step
    tracer.uninstall()
    assert LiveZone.__dict__["step"] is step


def test_quantile_is_the_median_on_smooth_data_and_steady_between_modes():
    assert workloads.quantile(list(range(1, 102)), 0.5) == \
        pytest.approx(51, abs=0.01)
    assert workloads.quantile(list(range(1, 102)), 0.9) == \
        pytest.approx(91, abs=0.5)
    # Half 40s, half 80s: moving one sample at the low mode's edge
    # from 41 to 59 moves a plain median by 9, this estimate by < 2.
    low, high = [40.0] * 59, [80.0] * 59
    a = workloads.quantile(low + [41.0] + high + [79.0], 0.5)
    b = workloads.quantile(low + [59.0] + high + [79.0], 0.5)
    assert abs(a - b) < 2 and 55 < a < 65


# -- correctness checks ------------------------------------------------------

class SmallZone(workloads.ZoneCalls):
    traced_ops = 3


class SmallCircuit(workloads.CircuitCalls):
    traced_ops = 3


class SmallBackbone(workloads.Backbone):
    traced_ops = 2


def test_zone_wire_pin_catches_a_changed_wire_image(monkeypatch):
    monkeypatch.setitem(workloads.PINS, "zone_round_image_sha256", "0")
    session = run.fixed_run(SmallZone, 1)
    assert any("wire image" in f for f in session.failures)
    assert session.failed == session.attempted == 3


def test_chaos_pin_catches_a_changed_determinism_key(monkeypatch):
    monkeypatch.setitem(workloads.PINS, "chaos_determinism_key", "0")
    session = workloads.ChaosFailover(1)
    session.op()
    assert any("determinism key" in f for f in session.failures)


@pytest.mark.parametrize("cls", [SmallZone, SmallCircuit, SmallBackbone])
def test_traced_run_is_correct_and_changes_no_output(cls):
    result = run.traced_run(cls, 5)
    assert result["failures"] == []
    names = {m["name"] for m in BENCH["per_layer"]}
    assert set(result["per_layer"]) == names
    share = result["per_layer"]["bench.attributed_share"][0]
    unattributed = result["per_layer"]["bench.unattributed_s"][0]
    layered = sum(value for name, (value, unit)
                  in result["per_layer"].items()
                  if name in layers.SELF_TIME.keys())
    assert 0 < share <= 1
    assert share == pytest.approx(layered / (layered + unattributed))
    assert result["unattributed"][0][0] > 0


def test_circuit_frames_are_checked_byte_for_byte(monkeypatch):
    from repro.core.rendezvous import CallSession
    real = CallSession.send_voice

    def corrupt(self, direction, frame):
        return real(self, direction, frame)[::-1]

    monkeypatch.setattr(CallSession, "send_voice", corrupt)
    session = SmallCircuit(1)
    session.op()
    assert session.failed == 1 and session.frames_lost > 0


# -- the CLI and the driver contract -----------------------------------------

def _cli(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    deterministic = [json.loads(line.split("deterministic ", 1)[1])
                     for line in lines
                     if line.lstrip().startswith("deterministic ")]
    return json.loads(lines[-1]), deterministic[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _cli("--workload", "backbone", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_cli_contract_and_deterministic_counts(workload):
    """Timed output carries exactly the end-to-end metrics; two traced
    processes agree on every count and ratio, and with the timed run on
    the failure ratios."""
    timed, timed_det = _result(_cli("--workload", workload, "--seed", "3",
                                    "--seconds", "1", "--trace", "0"))
    assert timed["correct"] and timed["failed"] == 0
    assert set(timed["metrics"]) == {m["name"]
                                     for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in timed["metrics"].values())

    first, first_det = _result(_cli("--workload", workload, "--seed", "3",
                                    "--seconds", "1", "--trace", "1"))
    second, second_det = _result(_cli("--workload", workload, "--seed",
                                      "3", "--seconds", "1", "--trace",
                                      "1"))
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert first_det == second_det
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "bytes", "fraction") and \
                name != "bench.attributed_share":
            assert metric == second["metrics"][name], name
    for ratio in ("call_fail_ratio", "frame_loss_ratio"):
        if ratio in timed_det:
            assert timed_det[ratio] == first_det[ratio] == 0.0
