"""Tests for request clustering, cross-page stats, and space models."""

import numpy as np
import pytest

from repro.analysis.clustering import cluster_requests
from repro.analysis.crosspage import cross_page_stats
from repro.analysis.space import bitonic_costs, odd_even_costs, pac_costs
from repro.artifacts.shm import decode_requests
from repro.common.types import MemOp, MemoryRequest, PAGE_BYTES


def req(addr, op=MemOp.LOAD, cycle=0):
    return MemoryRequest(addr=addr, op=op, cycle=cycle)


class TestClusterRequests:
    def test_dense_requests_cluster(self):
        requests = [req(i * 64, cycle=i) for i in range(20)]
        summary = cluster_requests(requests, window_cycles=None)
        assert summary.n_clusters == 1
        assert summary.noise_fraction == 0.0

    def test_sparse_requests_are_noise(self):
        requests = [req(i * 10 * PAGE_BYTES, cycle=i) for i in range(20)]
        summary = cluster_requests(requests, window_cycles=None)
        assert summary.noise_fraction == 1.0

    def test_window_selection(self):
        requests = [req(0, cycle=5), req(64, cycle=6), req(128, cycle=20_000)]
        summary = cluster_requests(requests, window_cycles=10_000)
        assert summary.n_requests == 2

    def test_cluster_sizes(self):
        requests = [req(i * 64, cycle=0) for i in range(5)] + [
            req(100 * PAGE_BYTES + i * 64, cycle=0) for i in range(3)
        ]
        summary = cluster_requests(requests, window_cycles=None)
        assert sorted(summary.cluster_sizes()) == [3, 5]

    def test_bfs_vs_sparselu_shape(self):
        # The Figures 8/9 claim, end to end on real generated traffic.
        from repro.config import TABLE1
        from repro.engine.system import CoalescerKind, System

        def noise_frac(bench):
            sys_ = System(TABLE1, CoalescerKind.NONE)
            trace = sys_.build_trace([bench], 6000)
            raw = sys_.hierarchy.process(trace)
            return cluster_requests(
                decode_requests(raw.packed), window_cycles=None
            ).noise_fraction

        assert noise_frac("bfs") > noise_frac("sparselu")


class TestCrossPage:
    def test_in_page_detected(self):
        requests = [req(0, cycle=0), req(64, cycle=1)]
        stats = cross_page_stats(requests)
        assert stats.in_page_coalescable == 2
        assert stats.cross_page_coalescable == 0

    def test_cross_page_detected(self):
        requests = [req(PAGE_BYTES - 64, cycle=0), req(PAGE_BYTES, cycle=1)]
        stats = cross_page_stats(requests)
        assert stats.cross_page_coalescable == 2
        assert stats.in_page_coalescable == 0

    def test_op_mismatch_not_coalescable(self):
        requests = [req(0, MemOp.LOAD), req(64, MemOp.STORE)]
        stats = cross_page_stats(requests)
        assert stats.in_page_coalescable == 0

    def test_window_limits_pairing(self):
        requests = [req(0, cycle=0)] + [
            req((i + 10) * 100 * PAGE_BYTES, cycle=i) for i in range(20)
        ] + [req(64, cycle=21)]
        stats = cross_page_stats(requests, window=4)
        assert stats.in_page_coalescable == 0

    def test_fractions(self):
        requests = [req(0), req(64), req(50 * PAGE_BYTES)]
        stats = cross_page_stats(requests)
        assert stats.in_page_fraction == pytest.approx(2 / 3)
        assert stats.cross_page_fraction == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            cross_page_stats([], window=1)


class TestSpaceModels:
    def test_paper_n16_values(self):
        # Section 5.3.3: 16 streams -> 384B of PAC buffer space
        # (128B block-maps + 256B request buffers) + 12B table.
        costs = pac_costs(16)
        assert costs.comparators == 16
        assert costs.buffer_bytes == 384 + 12

    def test_paper_n64_comparator_counts(self):
        # Figure 11a at N=64: PAC 64, bitonic 672, odd-even 543.
        assert pac_costs(64).comparators == 64
        assert bitonic_costs(64).comparators == 672
        assert odd_even_costs(64).comparators == 543

    def test_pac_always_cheapest(self):
        for n in (4, 8, 16, 32, 64):
            assert pac_costs(n).comparators < odd_even_costs(n).comparators
            assert odd_even_costs(n).comparators <= bitonic_costs(n).comparators
            assert pac_costs(n).buffer_bytes < odd_even_costs(n).buffer_bytes
            assert pac_costs(n).buffer_bytes < bitonic_costs(n).buffer_bytes

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            bitonic_costs(12)
        with pytest.raises(ValueError):
            odd_even_costs(0)
        with pytest.raises(ValueError):
            pac_costs(0)
