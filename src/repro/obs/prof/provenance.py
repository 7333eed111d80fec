"""Provenance stamps for bench entries (schema, commit, machine).

A cells/sec number without provenance is noise: the same workload
moves 3× faster on a different machine or a different Python.  Every
``BENCH_*.json`` entry the runner writes carries a stamp built here —
schema version, git commit and whether the working tree differed from
it, python/platform fingerprint — so
``repro bench compare`` can tell an engine regression apart from a
machine change (same fingerprint → absolute throughput is comparable;
different fingerprint → only machine-independent ratios are).

The UTC timestamp is deliberately *not* read here: wall-clock time is
stamped by the CLI/harness layer (via
:func:`repro.obs.prof.perfclock.utc_timestamp`) and passed in, keeping
host-time reads out of code paths a seeded run could import.
"""

from __future__ import annotations

import hashlib
import platform
import subprocess
from typing import Any, Dict, Optional

#: Version of the bench-entry JSON layout.  Bump when field meanings
#: change; ``compare`` refuses nothing but reads pre-provenance files
#: (no ``schema`` key) as version 0.
BENCH_SCHEMA_VERSION = 1


def git_commit(cwd: Optional[str] = None) -> str:
    """The current commit hash, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def git_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """Whether the checkout has uncommitted changes (tracked edits or
    untracked, unignored files), i.e. whether the measured code may
    differ from :func:`git_commit`; ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return bool(out.stdout.strip())


def machine_fingerprint() -> str:
    """A short stable hash of the performance-relevant host identity:
    python implementation/version/build and machine/processor.  Two
    runs with equal fingerprints have comparable absolute numbers."""
    parts = (
        platform.python_implementation(),
        platform.python_version(),
        platform.python_compiler(),
        platform.machine(),
        platform.processor(),
        platform.system(),
    )
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()
    return digest[:16]


def provenance(timestamp_utc: Optional[str] = None,
               cwd: Optional[str] = None) -> Dict[str, Any]:
    """The stamp carried by every schema-versioned bench entry."""
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "commit": git_commit(cwd),
        "dirty": git_dirty(cwd),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine_fingerprint": machine_fingerprint(),
        "timestamp_utc": timestamp_utc,
    }
