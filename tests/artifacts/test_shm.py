"""Raw-stream codec and shared-memory transport tests.

The bit-identity argument for the whole two-phase pipeline rests on the
codec: every field except ``req_id`` must round-trip exactly, and
``req_id`` is an opaque in-flight key whose values never reach results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import shm as shm_codec
from repro.artifacts.shm import (
    REQ_DTYPE,
    attach,
    decode_requests,
    detach,
    encode_requests,
    publish,
    release,
)
from repro.common.types import MemOp, MemoryRequest

_requests = st.lists(
    st.builds(
        MemoryRequest,
        addr=st.integers(min_value=0, max_value=2**40 - 1),
        size=st.integers(min_value=1, max_value=4096),
        op=st.sampled_from([MemOp.LOAD, MemOp.STORE, MemOp.ATOMIC, MemOp.FENCE]),
        core_id=st.integers(min_value=0, max_value=255),
        cycle=st.integers(min_value=0, max_value=2**40),
    ),
    max_size=64,
)


def _same_stream(decoded, original):
    assert len(decoded) == len(original)
    for got, want in zip(decoded, original):
        assert got.addr == want.addr
        assert got.size == want.size
        assert got.op is want.op
        assert got.core_id == want.core_id
        assert got.cycle == want.cycle


class TestCodec:
    def test_dtype_is_packed(self):
        assert REQ_DTYPE.itemsize == 23

    @settings(max_examples=50, deadline=None)
    @given(_requests)
    def test_encode_decode_round_trip(self, requests):
        packed = encode_requests(requests)
        assert packed.dtype == REQ_DTYPE
        assert len(packed) == len(requests)
        _same_stream(decode_requests(packed), requests)

    def test_decoded_ids_are_fresh_and_unique(self):
        reqs = [MemoryRequest(addr=i * 64) for i in range(16)]
        decoded = decode_requests(encode_requests(reqs))
        ids = [r.req_id for r in decoded]
        assert len(set(ids)) == len(ids)

    def test_double_decode_is_identical_payload(self):
        """Two decodes of the same buffer agree on every simulated field
        (the ids differ — they are allocation counters, not state)."""
        reqs = [
            MemoryRequest(addr=i * 64, op=MemOp.STORE if i % 2 else MemOp.LOAD)
            for i in range(32)
        ]
        packed = encode_requests(reqs)
        _same_stream(decode_requests(packed), decode_requests(packed))

    def test_empty_stream(self):
        packed = encode_requests([])
        assert len(packed) == 0
        assert decode_requests(packed) == []

    @pytest.mark.parametrize("field, value, message", [
        ("addr", -64, "packed request 3: negative physical address"),
        ("size", 0, "packed request 3: non-positive request size"),
        ("op", 7, "packed request 3: 7 is not a valid MemOp"),
    ])
    def test_corrupt_row_is_rejected(self, field, value, message):
        """Decoding keeps every check the ``MemoryRequest`` constructor
        makes, and names the first bad row."""
        packed = encode_requests([MemoryRequest(addr=i * 64) for i in range(8)])
        packed[field][3] = value
        packed[field][5] = value  # a later bad row is not the one named
        with pytest.raises(ValueError, match=message):
            decode_requests(packed)


class TestSharedMemoryTransport:
    def test_publish_attach_round_trip(self):
        reqs = [
            MemoryRequest(addr=4096 * i + 64, size=64, cycle=3 * i)
            for i in range(100)
        ]
        packed = encode_requests(reqs)
        handle, name = publish(packed)
        try:
            shm, view = attach(name, len(packed))
            try:
                _same_stream(decode_requests(view), reqs)
            finally:
                detach(shm)
        finally:
            release(handle)

    def test_zero_length_stream_gets_a_segment(self):
        handle, name = publish(encode_requests([]))
        try:
            shm, view = attach(name, 0)
            try:
                assert len(view) == 0
            finally:
                detach(shm)
        finally:
            release(handle)

    def test_release_is_idempotent(self):
        handle, _ = publish(encode_requests([MemoryRequest(addr=0)]))
        release(handle)
        release(handle)  # double release must not raise

    def test_attach_does_not_own_the_segment(self):
        """Detaching a reader must leave the segment readable: the parent
        owns the lifecycle (the resource-tracker suppression contract)."""
        packed = encode_requests([MemoryRequest(addr=128, size=64)])
        handle, name = publish(packed)
        try:
            shm1, view1 = attach(name, 1)
            decoded1 = decode_requests(view1)
            detach(shm1)
            shm2, view2 = attach(name, 1)
            try:
                _same_stream(decode_requests(view2), decoded1)
            finally:
                detach(shm2)
        finally:
            release(handle)

    def test_published_bytes_match_source(self):
        packed = encode_requests(
            [MemoryRequest(addr=i * 64, cycle=i) for i in range(10)]
        )
        handle, name = publish(packed)
        try:
            shm, view = attach(name, len(packed))
            try:
                np.testing.assert_array_equal(np.asarray(view), packed)
            finally:
                detach(shm)
        finally:
            release(handle)


class TestReleaseVerification:
    def test_segment_exists_tracks_lifecycle(self):
        import sys

        handle, name = publish(encode_requests([MemoryRequest(addr=0)]))
        try:
            if sys.platform.startswith("linux"):
                assert shm_codec.segment_exists(name)
        finally:
            assert release(handle) is True
        assert not shm_codec.segment_exists(name)

    def test_release_reports_verified_unlink(self):
        handle, _ = publish(encode_requests([MemoryRequest(addr=64)]))
        assert release(handle) is True
        # Idempotent: a second release still verifies as gone.
        assert release(handle) is True

    def test_segment_exists_false_for_unknown_name(self):
        assert not shm_codec.segment_exists("psm_no_such_segment")

    def test_publish_fault_leaks_nothing(self):
        """An injected publish failure must raise before (or release
        after) segment creation — never leak."""
        from repro.faults import FaultInjector, FaultPlan, installed

        before = set()
        import pathlib

        root = pathlib.Path("/dev/shm")
        if root.is_dir():
            before = {p.name for p in root.glob("psm_*")}
        plan = FaultPlan.parse("shm.publish:enospc@0")
        with installed(FaultInjector(plan)):
            import pytest as _pytest

            with _pytest.raises(OSError):
                publish(encode_requests([MemoryRequest(addr=0)]))
        if root.is_dir():
            assert {p.name for p in root.glob("psm_*")} <= before

    def test_attach_fault_raises_segment_loss(self):
        from repro.faults import FaultInjector, FaultPlan, installed

        handle, name = publish(encode_requests([MemoryRequest(addr=0)]))
        try:
            plan = FaultPlan.parse("shm.attach:lost@0")
            with installed(FaultInjector(plan)):
                import pytest as _pytest

                with _pytest.raises(FileNotFoundError):
                    attach(name, 1)
            # The segment itself is intact; only the attach was faulted.
            shm, view = attach(name, 1)
            detach(shm)
        finally:
            release(handle)
