"""Golden determinism keys for the committed scenario corpus.

Every ``scenarios/*.toml`` entry runs once on ``batch-v2`` and must
pass its survival criteria with a ``determinism_key`` equal to the
value pinned here.  The key hashes every engine-invariant part of the
outcome (DESIGN.md §10), so a refactor that moves any of them — wire
image, metrics, traces, timeline, survival figures — fails here with
the scenario's name.  A deliberate protocol change re-pins the value
in the same commit.

The chaos-failover pin is also the perfbench ``chaos-failover``
workload's pin (``perfbench/pins.json``); the two must agree.
"""

import json
from pathlib import Path

import pytest

from repro.scenario import run_scenario
from repro.scenario.loader import load_scenario

CORPUS = sorted(Path("scenarios").glob("*.toml"))

#: Full ``determinism_key`` of each corpus entry on ``batch-v2``.
PINNED_KEYS = {
    "00-baseline":
        "fec0663bc2fa599a4160d1e2922973c72bc26555e92279e7a0fda8a2495c0b0b",
    "01-chaos-failover":
        "27aa63c9ceebfd8af26f0ffd42ff889be04ca6c2ac34fb78119b2551ce83cb32",
    "02-flash-crowd":
        "41e8660b2680ed14efbae6f93a64cc96405df77e91657036a62f7a115d6f9c42",
    "03-churn-mobile":
        "b0d2392a712b3e9c41ce21c1856496b82558c395f75ec7cdddd8476abbf31ea6",
    "04-loss-jitter-storm":
        "9aaa97713d64642a2449afdca49dccd0da3fa0a288a9509edd9f96a733dc1790",
    "05-sybil-blacklist":
        "24fd0831cfacdfd4693ecae6db6d9fdfd09f071dab1a5dbb1d364caee7d0b2d0",
    "06-directory-stall":
        "16e07f2608d8f1d5275f35921656c320013f3b58a69458a87b538e7d3a4167ab",
    "07-net-loopback":
        "4359eb1d9b0649e2417e519de071fd05558abdc0898367a850d26c9a7c489f60",
}


def test_pins_cover_the_corpus():
    assert sorted(PINNED_KEYS) == [path.stem for path in CORPUS]


def test_chaos_pin_matches_perfbench():
    pins = json.loads(Path("perfbench/pins.json").read_text())
    assert PINNED_KEYS["01-chaos-failover"] == \
        pins["chaos_determinism_key"]


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_determinism_key(path):
    report = run_scenario(load_scenario(path), execution="batch-v2")
    assert report.passed, report.criteria_failures
    assert report.determinism_key == PINNED_KEYS[path.stem]
