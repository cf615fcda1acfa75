"""Persistent run ledger: one JSON record per benchmark/suite run.

Probes and spans observe *inside* one simulation and the event log
observes *around* one execution; the ledger observes *across* runs. When
the CLI's ``--ledger DIR`` or ``$REPRO_LEDGER_DIR`` names a directory
(default off — recording must be provably free when absent), every
recorded run appends one ``run-<id>.json`` under it carrying:

* identity — the :meth:`repro.config.SimulationConfig.config_hash`,
  the artifact-store code fingerprint, and the git revision (with a
  dirty marker) the run executed under;
* parameters — kind (run/compare/suite/bench), benchmarks, arms, seed,
  access count, device;
* outcomes — per-(benchmark, arm) deterministic headline metrics
  (runtime cycles, raw/issued counts, efficiencies, latencies, energy);
* digests — a compact per-stage span digest (p50/p95/p99/mean per
  pipeline stage plus end-to-end) when the run traced spans, key probe
  counters/gauges when it collected telemetry, and the
  :class:`repro.engine.health.RunHealth` summary for supervised suites;
* envelope — wall-clock seconds and aggregate throughput, recorded for
  humans but never part of the deterministic content digest, mirroring
  the ``ts`` envelope discipline of :mod:`repro.telemetry.events`.

``repro runs`` lists/shows records; ``repro diff`` attributes the delta
between two records to stage and counter movement (:mod:`repro.ledger.diff`).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

__all__ = [
    "ENV_LEDGER_DIR",
    "LEDGER_SCHEMA",
    "RunRecord",
    "build_record",
    "git_fingerprint",
    "ledger_dir",
    "list_runs",
    "load_run",
    "record_run",
    "result_metrics",
    "span_digest",
    "telemetry_digest",
]

#: Directory that turns the ledger on; unset means fully disabled.
ENV_LEDGER_DIR = "REPRO_LEDGER_DIR"

#: Bump when the record layout changes incompatibly.
LEDGER_SCHEMA = 1

#: Deterministic per-result headline metrics every record carries.
METRIC_FIELDS = (
    "runtime_cycles",
    "n_raw",
    "n_issued",
    "n_merged",
    "coalescing_efficiency",
    "transaction_efficiency",
    "transaction_bytes",
    "bank_conflicts",
    "stall_cycles",
    "mean_memory_latency_cycles",
    "mean_raw_service_cycles",
)


def ledger_dir() -> Optional[Path]:
    """The directory ``$REPRO_LEDGER_DIR`` names, or None (recording is
    off unless a caller passes its own ``root``, as ``--ledger`` does)."""
    env = os.environ.get(ENV_LEDGER_DIR, "").strip()
    return Path(env) if env else None


# --------------------------------------------------------------------- #
# fingerprints


def git_fingerprint(cwd: Optional[Path] = None) -> str:
    """``<short-sha>[-dirty]`` of the working tree, falling back to the
    artifact-store code fingerprint outside a git checkout (the records
    must stay attributable either way)."""
    base = Path(cwd) if cwd is not None else Path.cwd()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=base, capture_output=True, text=True, timeout=5,
        )
        if sha.returncode == 0 and sha.stdout.strip():
            rev = sha.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=base, capture_output=True, text=True, timeout=5,
            )
            if status.returncode == 0 and status.stdout.strip():
                rev += "-dirty"
            return rev
    except (OSError, subprocess.SubprocessError):
        pass
    from repro.artifacts.store import code_fingerprint

    return f"code:{code_fingerprint()}"


# --------------------------------------------------------------------- #
# digests


def result_metrics(result) -> Dict[str, float]:
    """The deterministic headline scalars of one :class:`RunResult`."""
    out = {name: getattr(result, name) for name in METRIC_FIELDS}
    out["energy_nj"] = result.energy.total_nj
    return out


def span_digest(trace) -> Dict:
    """Per-stage p50/p95/p99/mean plus end-to-end, from a span trace.

    Stage means partition the end-to-end mean (every request contributes
    to every stage, zero where it skipped one), so
    ``sum(stage means) == end_to_end mean`` exactly — the property
    :mod:`repro.ledger.diff` relies on to make stage contributions sum
    to the end-to-end delta.
    """
    from repro.telemetry.attribution import (
        end_to_end_percentiles,
        stage_breakdown,
    )

    keep = ("mean", "p50", "p95", "p99")
    stages = {
        stage: {k: stats[k] for k in keep}
        for stage, stats in stage_breakdown(trace).items()
    }
    e2e = end_to_end_percentiles(trace)
    return {
        "stages": stages,
        "end_to_end": {k: e2e[k] for k in keep},
        "n": e2e["n"],
    }


def telemetry_digest(registry) -> Dict:
    """Compact whole-run digest of a probe registry: counter totals and
    gauge/histogram summary statistics (no per-window timelines)."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    for probe in registry.probes():
        if probe.kind == "counter":
            counters[probe.name] = probe.total
        elif probe.kind == "gauge":
            gauges[probe.name] = {
                "mean": probe.mean,
                "p50": probe.p50,
                "p95": probe.p95,
                "p99": probe.p99,
            }
        else:  # histogram
            gauges[probe.name] = {
                "mean": probe.mean,
                "p50": probe.p50,
                "p95": probe.p95,
                "p99": probe.p99,
            }
    return {"counters": counters, "gauges": gauges}


# --------------------------------------------------------------------- #
# records


@dataclass
class RunRecord:
    """One ledger entry (JSON-safe throughout)."""

    run_id: str
    kind: str
    benchmarks: List[str]
    arms: List[str]
    n_accesses: int
    seed: Optional[int]
    device: str
    config_hash: str
    code_fingerprint: str
    git: str
    #: ``{"bench/arm": {metric: value}}`` deterministic headline scalars.
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: ``{"bench/arm": span digest}`` for runs that traced spans.
    stages: Dict[str, Dict] = field(default_factory=dict)
    #: ``{"bench/arm": telemetry digest}`` for runs that collected probes.
    counters: Dict[str, Dict] = field(default_factory=dict)
    health: Optional[Dict] = None
    #: Envelope (never part of the content digest): wall-clock cost and
    #: aggregate raw-request throughput of the recorded execution.
    wall_seconds: float = 0.0
    throughput: float = 0.0
    created: str = ""

    def content_digest(self) -> str:
        """sha256 over the deterministic content (identity + outcomes);
        identical runs share a digest regardless of wall-clock."""
        payload = json.dumps(
            {
                "schema": LEDGER_SCHEMA,
                "kind": self.kind,
                "benchmarks": self.benchmarks,
                "arms": self.arms,
                "n_accesses": self.n_accesses,
                "seed": self.seed,
                "device": self.device,
                "config_hash": self.config_hash,
                "code_fingerprint": self.code_fingerprint,
                "metrics": self.metrics,
                "stages": self.stages,
                "counters": self.counters,
            },
            sort_keys=True,
        )
        return sha256(payload.encode()).hexdigest()

    def as_dict(self) -> Dict:
        return {
            "schema": LEDGER_SCHEMA,
            "run_id": self.run_id,
            "kind": self.kind,
            "benchmarks": self.benchmarks,
            "arms": self.arms,
            "n_accesses": self.n_accesses,
            "seed": self.seed,
            "device": self.device,
            "config_hash": self.config_hash,
            "code_fingerprint": self.code_fingerprint,
            "git": self.git,
            "metrics": self.metrics,
            "stages": self.stages,
            "counters": self.counters,
            "health": self.health,
            "wall_seconds": self.wall_seconds,
            "throughput": self.throughput,
            "created": self.created,
            "content_digest": self.content_digest(),
        }


def _label(key) -> str:
    """Normalize a results key into a ledger label (``bench/arm``)."""
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def build_record(
    results: Mapping,
    *,
    kind: str,
    config,
    n_accesses: int,
    seed: Optional[int],
    device: str = "hmc",
    wall_seconds: float = 0.0,
) -> RunRecord:
    """Assemble a :class:`RunRecord` from ``{key: RunResult}`` outcomes.

    Keys may be strings, enums, or the ``(benchmark, arm)`` tuples of
    :func:`repro.engine.parallel.run_suite_parallel`; each becomes a
    ``bench/arm``-style label. Span/telemetry digests and the health
    summary are included exactly when the results carry them.
    """
    from repro.artifacts.store import code_fingerprint

    labeled = {}
    for key, result in results.items():
        if isinstance(key, tuple):
            label = _label(key)
        elif hasattr(key, "value"):
            label = f"{getattr(result, 'benchmark', '?')}/{key.value}"
        else:
            label = _label(key)
        labeled[label] = result

    benchmarks = sorted({r.benchmark for r in labeled.values()})
    arms = sorted({r.coalescer for r in labeled.values()})
    record = RunRecord(
        run_id="",
        kind=kind,
        benchmarks=benchmarks,
        arms=arms,
        n_accesses=int(n_accesses),
        seed=None if seed is None else int(seed),
        device=device,
        config_hash=config.config_hash(),
        code_fingerprint=code_fingerprint(),
        git=git_fingerprint(),
        wall_seconds=float(wall_seconds),
    )
    health = None
    total_raw = 0
    for label in sorted(labeled):
        result = labeled[label]
        record.metrics[label] = result_metrics(result)
        total_raw += result.n_raw
        if result.spans is not None:
            record.stages[label] = span_digest(result.spans)
        if result.telemetry is not None:
            record.counters[label] = telemetry_digest(result.telemetry)
        if result.health is not None:
            health = result.health
    if health is not None:
        record.health = health.as_dict()
    if wall_seconds > 0:
        record.throughput = total_raw / wall_seconds
    record.created = time.strftime("%Y-%m-%dT%H:%M:%S")
    record.run_id = (
        time.strftime("%Y%m%dT%H%M%S") + "-" + record.content_digest()[:8]
    )
    return record


def record_run(record: RunRecord, root: Optional[Path] = None) -> Optional[Path]:
    """Persist ``record`` under the ledger directory.

    Returns the written path, or None when the ledger is disabled
    (``root`` not given and ``$REPRO_LEDGER_DIR`` unset). Colliding
    run ids (two records within one second of the same content) get a
    numeric suffix rather than overwriting history — the ledger is
    append-only. Emits a ``ledger.record`` event when the event log is
    active.
    """
    base = Path(root) if root is not None else ledger_dir()
    if base is None:
        return None
    base.mkdir(parents=True, exist_ok=True)
    run_id = record.run_id
    path = base / f"run-{run_id}.json"
    suffix = 0
    while path.exists():
        suffix += 1
        run_id = f"{record.run_id}-{suffix}"
        path = base / f"run-{run_id}.json"
    record.run_id = run_id
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record.as_dict(), indent=2, sort_keys=True))
    os.replace(tmp, path)

    from repro.telemetry import events as ev

    elog = ev.active()
    if elog.enabled:
        elog.emit(ev.LedgerRecorded(run_id=run_id, path=str(path)))
    return path


def list_runs(root: Optional[Path] = None) -> List[Dict]:
    """Every parseable record under the ledger directory, oldest first.

    Unreadable files are skipped (never fatal): the ledger is advisory
    history, not load-bearing state.
    """
    base = Path(root) if root is not None else ledger_dir()
    if base is None or not base.is_dir():
        return []
    out: List[Dict] = []
    for path in sorted(base.glob("run-*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict) and doc.get("run_id"):
            doc["_path"] = str(path)
            out.append(doc)
    out.sort(key=lambda d: d.get("run_id", ""))
    return out


def load_run(ref: Union[str, Path], root: Optional[Path] = None) -> Dict:
    """Resolve ``ref`` — a run id, a unique id prefix, or a file path —
    into a record dict. Raises ``FileNotFoundError``/``ValueError`` when
    nothing (or more than one record) matches."""
    path = Path(ref)
    if path.is_file():
        doc = json.loads(path.read_text())
        doc["_path"] = str(path)
        return doc
    runs = list_runs(root)
    exact = [d for d in runs if d["run_id"] == str(ref)]
    if len(exact) == 1:
        return exact[0]
    matches = [d for d in runs if d["run_id"].startswith(str(ref))]
    if not matches:
        raise FileNotFoundError(f"no ledger record matches {ref!r}")
    if len(matches) > 1:
        ids = ", ".join(d["run_id"] for d in matches[:5])
        raise ValueError(f"ambiguous run reference {ref!r}: {ids}")
    return matches[0]
