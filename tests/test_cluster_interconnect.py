"""Inter-pod link cost model: presets, validation, FIFO contention."""

import pytest

from repro.cluster.interconnect import (
    ETHERNET,
    RDMA,
    Interconnect,
    InterPodLink,
    LinkSpec,
    link_spec,
)


class TestLinkSpec:
    def test_presets_resolve_by_name(self):
        assert link_spec("rdma") is RDMA
        assert link_spec("ethernet") is ETHERNET

    def test_spec_passes_through(self):
        custom = LinkSpec(kind="x", latency_ns=1.0, bandwidth_gbps=2.0, setup_ns=0.0)
        assert link_spec(custom) is custom

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            link_spec("carrier-pigeon")

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(kind="bad", latency_ns=1.0, bandwidth_gbps=0.0, setup_ns=0.0)
        with pytest.raises(ValueError):
            LinkSpec(kind="bad", latency_ns=-1.0, bandwidth_gbps=1.0, setup_ns=0.0)

    def test_rdma_is_faster_than_ethernet(self):
        """The regime gap the router's cost model is built on."""
        nbytes = 64 << 20
        assert RDMA.serialization_ns(nbytes) < ETHERNET.serialization_ns(nbytes)
        assert RDMA.latency_ns < ETHERNET.latency_ns


class TestInterPodLink:
    def test_single_transfer_cost(self):
        link = InterPodLink("a", "b", RDMA)
        nbytes = 1 << 20
        expected = int(RDMA.setup_ns + RDMA.serialization_ns(nbytes)) + int(
            RDMA.latency_ns
        )
        assert link.transfer_ns(nbytes, now=0) == expected

    def test_concurrent_transfers_queue_fifo(self):
        """A transfer issued while the link is busy waits for the wire."""
        link = InterPodLink("a", "b", RDMA)
        first = link.transfer_ns(1 << 20, now=0)
        second = link.transfer_ns(1 << 20, now=0)
        assert second > first
        # The second occupies the link right after the first finishes
        # transmitting (propagation overlaps, occupancy does not).
        assert second == pytest.approx(
            first + RDMA.setup_ns + RDMA.serialization_ns(1 << 20), abs=2
        )

    def test_idle_link_does_not_queue(self):
        link = InterPodLink("a", "b", RDMA)
        first = link.transfer_ns(1 << 20, now=0)
        later = link.transfer_ns(1 << 20, now=10 * first)
        assert later == first

    def test_negative_size_rejected(self):
        link = InterPodLink("a", "b", RDMA)
        with pytest.raises(ValueError):
            link.transfer_ns(-1, now=0)


class TestInterconnect:
    def test_directions_are_independent_links(self):
        mesh = Interconnect("rdma")
        mesh.transfer_ns("a", "b", 8 << 20, now=0)
        # Reverse direction sees an idle link (full duplex).
        forward_again = mesh.transfer_ns("a", "b", 8 << 20, now=0)
        reverse = mesh.transfer_ns("b", "a", 8 << 20, now=0)
        assert reverse < forward_again

    def test_no_self_link(self):
        with pytest.raises(ValueError):
            Interconnect("rdma").link("a", "a")

    def test_total_bytes_accumulates(self):
        mesh = Interconnect("rdma")
        mesh.transfer_ns("a", "b", 100, now=0)
        mesh.transfer_ns("b", "c", 50, now=0)
        assert mesh.total_bytes == 150
