"""Tests for wire-protocol sizing and request records."""

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.errors import ProtocolError
from repro.pvfs.protocol import (
    BYTES_PER_REGION,
    REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    IORequest,
    ManagerRequest,
    request_wire_bytes,
    response_wire_bytes,
)
from repro.regions import RegionList
from repro.simulate import Event, Simulator


class TestWireSizes:
    def test_contiguous_request_is_header_only(self):
        assert request_wire_bytes(1) == REQUEST_HEADER_BYTES

    def test_list_request_adds_trailing_data(self):
        assert request_wire_bytes(64) == REQUEST_HEADER_BYTES + 64 * BYTES_PER_REGION

    def test_write_request_carries_data(self):
        assert request_wire_bytes(1, data_bytes=500) == REQUEST_HEADER_BYTES + 500

    def test_max_list_request_fits_one_ethernet_frame(self):
        # The paper's design point (Section 3.3): a 64-region list request
        # (header + trailing data) travels in a single 1500-byte packet.
        net = NetworkConfig()
        assert request_wire_bytes(64) <= net.mtu_payload
        assert net.frames_for(request_wire_bytes(64)) == 1

    def test_65_regions_would_not_fit(self):
        net = NetworkConfig()
        assert net.frames_for(request_wire_bytes(90)) > 1

    def test_invalid_inputs(self):
        with pytest.raises(ProtocolError):
            request_wire_bytes(0)
        with pytest.raises(ProtocolError):
            request_wire_bytes(1, data_bytes=-1)
        with pytest.raises(ProtocolError):
            response_wire_bytes(-1)

    def test_response_sizes(self):
        assert response_wire_bytes() == RESPONSE_HEADER_BYTES
        assert response_wire_bytes(100) == RESPONSE_HEADER_BYTES + 100


class TestIORequest:
    def make(self, kind="read", n=4, data=None):
        sim = Simulator()
        regions = RegionList.contiguous(0, n * 10, 10)
        return IORequest(
            kind=kind,
            file_id=1,
            regions=regions,
            client_node=None,
            response=Event(sim),
            data=data,
        )

    def test_read_sizes(self):
        req = self.make("read", n=4)
        assert req.regions.count == 4
        assert req.data_bytes == 0
        assert req.wire_bytes == request_wire_bytes(4)
        assert req.response_bytes == RESPONSE_HEADER_BYTES + 40

    def test_write_sizes(self):
        req = self.make("write", n=4, data=np.zeros(40, np.uint8))
        assert req.data_bytes == 40
        assert req.wire_bytes == request_wire_bytes(4, 40)
        assert req.response_bytes == RESPONSE_HEADER_BYTES

    def test_write_payload_size_checked(self):
        with pytest.raises(ProtocolError):
            self.make("write", n=4, data=np.zeros(39, np.uint8))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            self.make("erase")

    def test_request_ids_unique(self):
        a, b = self.make(), self.make()
        assert a.request_id != b.request_id


class TestManagerRequest:
    def test_ops_validated(self):
        with pytest.raises(ProtocolError):
            ManagerRequest(op="format")

    def test_fixed_sizes(self):
        req = ManagerRequest(op="open", path="/x")
        assert req.wire_bytes == 256
        assert req.response_bytes == 256
