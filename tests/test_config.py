"""Tests for repro.config."""

import pytest

from repro.config import (
    DEFAULT_LIST_IO_MAX_REGIONS,
    DEFAULT_SIEVE_BUFFER_SIZE,
    CacheConfig,
    ClusterConfig,
    CostModel,
    DiskConfig,
    NetworkConfig,
    StripeParams,
)
from repro.errors import ConfigError
from repro.pvfs import Cluster
from repro.units import MiB


class TestNetworkConfig:
    def test_defaults_model_fast_ethernet(self):
        net = NetworkConfig()
        assert net.bandwidth == 12.5e6  # 100 Mbit/s in bytes/s
        assert net.mtu == 1500
        assert net.mtu_payload == 1460

    def test_frames_for(self):
        net = NetworkConfig()
        assert net.frames_for(0) == 1  # bare header still needs a frame
        assert net.frames_for(1) == 1
        assert net.frames_for(1460) == 1
        assert net.frames_for(1461) == 2
        assert net.frames_for(14600) == 10

    def test_wire_bytes_includes_per_frame_overhead(self):
        net = NetworkConfig()
        one = net.wire_bytes(100)
        assert one == 100 + 38 + 40
        two = net.wire_bytes(2000)
        assert two == 2000 + 2 * 78

    def test_transmit_time_monotone_in_payload(self):
        net = NetworkConfig()
        assert net.transmit_time(100) < net.transmit_time(1000) < net.transmit_time(100000)

    def test_transmit_time_large_payload_near_line_rate(self):
        # 1 MB at 100 Mbit/s should take ~0.084 s plus framing overhead.
        t = NetworkConfig().transmit_time(1_000_000)
        assert 0.08 < t < 0.095

    def test_describe_splits_latency_and_serialization(self):
        net = NetworkConfig()
        assert net.describe(2000) == {
            "payload_bytes": 2000,
            "wire_bytes": net.wire_bytes(2000),
            "frames": 2,
            "latency_s": net.latency,
            "serialization_s": net.transmit_time(2000),
        }

    def test_single_frame_request_matches_paper_design_point(self):
        # Paper 3.3: header + 64 (offset, length) pairs fits one Ethernet packet.
        net = NetworkConfig()
        trailing = 64 * 16
        assert trailing + 40 <= net.mtu  # with TCP/IP headers

    def test_validation(self):
        with pytest.raises(ConfigError):
            NetworkConfig(bandwidth=0)
        with pytest.raises(ConfigError):
            NetworkConfig(latency=-1)
        with pytest.raises(ConfigError):
            NetworkConfig(mtu=20, ip_tcp_overhead=40)


class TestDiskConfig:
    def test_positioning_time(self):
        d = DiskConfig()
        assert d.positioning_time == pytest.approx(d.seek_time + d.rotational_latency)

    def test_validation(self):
        with pytest.raises(ConfigError):
            DiskConfig(transfer_rate=0)
        with pytest.raises(ConfigError):
            DiskConfig(seek_time=-0.1)


class TestCacheConfig:
    def test_n_blocks(self):
        c = CacheConfig(capacity=16 * 4096, block_size=4096)
        assert c.n_blocks == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            CacheConfig(block_size=0)


class TestCostModel:
    def test_defaults_positive(self):
        c = CostModel()
        assert c.iod_request_cost > 0
        assert c.iod_region_cost > 0
        assert c.iod_request_cost > c.iod_region_cost  # per-request dominates

    def test_validation(self):
        with pytest.raises(ConfigError):
            CostModel(iod_request_cost=-1.0)
        with pytest.raises(ConfigError):
            CostModel(memcpy_rate=0.0)


class TestStripeParams:
    def test_paper_default_stripe_size(self):
        assert StripeParams().stripe_size == 16384

    def test_resolve_pcount_defaults_to_all(self):
        assert StripeParams().resolve_pcount(8) == 8
        assert StripeParams(pcount=4).resolve_pcount(8) == 4

    def test_resolve_pcount_rejects_overcommit(self):
        with pytest.raises(ConfigError):
            StripeParams(pcount=9).resolve_pcount(8)
        with pytest.raises(ConfigError):
            StripeParams(base=8).resolve_pcount(8)

    def test_validation(self):
        with pytest.raises(ConfigError):
            StripeParams(stripe_size=0)
        with pytest.raises(ConfigError):
            StripeParams(pcount=0)


class TestClusterConfig:
    def test_chiba_city_defaults(self):
        cfg = ClusterConfig.chiba_city()
        assert cfg.n_iods == 8
        assert cfg.stripe.stripe_size == 16384
        assert cfg.list_io_max_regions == DEFAULT_LIST_IO_MAX_REGIONS == 64
        assert cfg.sieve_buffer_size == DEFAULT_SIEVE_BUFFER_SIZE == 32 * MiB
        # "One of the I/O nodes doubled as both a manager and an I/O server."
        cluster = Cluster.build(cfg, move_bytes=False)
        assert cluster.manager.node is cluster.iods[0].node

    def test_with_override(self):
        cfg = ClusterConfig().with_(n_clients=16)
        assert cfg.n_clients == 16
        assert cfg.n_iods == 8  # untouched

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_clients=0)
        with pytest.raises(ConfigError):
            ClusterConfig(n_iods=0)
        with pytest.raises(ConfigError):
            ClusterConfig(list_io_max_regions=0)
        with pytest.raises(ConfigError):
            ClusterConfig(stripe=StripeParams(pcount=16), n_iods=8)
