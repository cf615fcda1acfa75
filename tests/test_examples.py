"""Smoke tests: the shipped examples must run end to end.

The examples with adjustable problem sizes run small; the fixed-size
ones run as shipped (each takes a second or two).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=300):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "gs", "4000")
        assert "coalescing efficiency" in out
        assert "PAC vs no coalescing" in out

    def test_quickstart_other_benchmark(self):
        out = run_example("quickstart.py", "bfs", "3000")
        assert "PAC internals" in out

    def test_paper_tour(self):
        out = run_example("paper_tour.py", "4000")
        assert "shape claims reproduced" in out
        assert "Figure 6a" in out

    def test_multiprocess_example(self):
        out = run_example("multiprocess_coalescing.py", "gs", "bfs")
        assert "gs + bfs" in out

    def test_ablation_tour(self):
        out = run_example("ablation_tour.py", "2500")
        assert "ablation: timeout" in out
        assert "ablation: address-mapping" in out

    def test_latency_breakdown(self):
        out = run_example("latency_breakdown.py", "3000")
        assert "HMC latency breakdown on GS" in out
        assert "vault_wait" in out
        assert "PAC vault heat" in out

    def test_hbm_portability(self):
        out = run_example("hbm_portability.py")
        for protocol in ("hmc1.0", "hmc2.1", "hbm"):
            assert protocol in out
        assert "packets: 64B x" in out
        assert "remote crossbar routes" in out

    def test_graph_analytics(self):
        out = run_example("graph_analytics.py")
        for bench in ("bfs", "pr", "sparselu"):
            assert bench in out
        assert "DBSCAN noise" in out

    def test_custom_workload(self):
        out = run_example("custom_workload.py")
        assert "Custom workload 'hashjoin'" in out
        arms = [line.split()[0] for line in out.splitlines()
                if "issued=" in line]
        assert arms == ["none", "dmc", "pac"]
        assert "PAC on your kernel" in out

    def test_all_examples_exist_and_are_executable_python(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py", "graph_analytics.py",
            "multiprocess_coalescing.py", "hbm_portability.py",
            "custom_workload.py", "latency_breakdown.py",
            "paper_tour.py", "ablation_tour.py",
        } <= names
        for p in EXAMPLES.glob("*.py"):
            head = p.read_text().splitlines()[0]
            assert head.startswith("#!"), p
