"""Ethernet wire, switch, and clos topology models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import ClosTopology, EthernetWire, Locality, Switch
from repro.net.topology import ClosConfig, SWITCH_HOPS
from repro.params import NetworkParams
from repro.units import ns, to_ns


class TestEthernetWire:
    def test_min_frame_padding(self, sim):
        wire = EthernetWire(sim, "w")
        assert wire.frame_bytes(10) == 64 + 24
        assert wire.frame_bytes(64) == 64 + 24

    def test_framing_overhead(self, sim):
        wire = EthernetWire(sim, "w")
        assert wire.frame_bytes(1514) == 1538

    def test_mtu_serialization_near_300ns(self, sim):
        wire = EthernetWire(sim, "w")
        # 1538 B at 40 Gb/s = 307.6 ns.
        assert to_ns(wire.serialization_ticks(1514)) == pytest.approx(307.6, rel=0.01)

    def test_closed_form_matches_event_model(self, sim):
        wire = EthernetWire(sim, "w")
        sim.run_until(wire.transmit(256))
        assert sim.now == wire.latency(256)

    def test_same_direction_packets_serialize(self, sim):
        wire = EthernetWire(sim, "w")
        both = sim.all_of(
            [sim.spawn(wire.transmit(1514)).done, sim.spawn(wire.transmit(1514)).done]
        )
        sim.run_until(both)
        assert sim.now == wire.latency(1514) + wire.serialization_ticks(1514)

    def test_opposite_directions_independent(self, sim):
        wire = EthernetWire(sim, "w")
        both = sim.all_of(
            [
                sim.spawn(wire.transmit(1514)).done,
                sim.spawn(wire.transmit(1514, reverse=True)).done,
            ]
        )
        sim.run_until(both)
        assert sim.now == wire.latency(1514)

    def test_stats(self, sim):
        wire = EthernetWire(sim, "w")
        sim.run_until(wire.transmit(100))
        assert wire.stats.get_counter("packets") == 1
        assert wire.stats.get_counter("bytes") == 100


class TestSwitch:
    def test_hop_latency_composition(self, sim):
        switch = Switch(sim, "s")
        params = switch.params
        expected = (
            params.switch_latency
            + switch.hop_latency(64)
            - params.switch_latency
        )
        assert switch.hop_latency(64) == expected  # self-consistency

    def test_hop_latency_includes_switch_pipeline(self, sim):
        fast = Switch(sim, "fast", params=NetworkParams(switch_latency=ns(25)))
        slow = Switch(sim, "slow", params=NetworkParams(switch_latency=ns(200)))
        assert slow.hop_latency(64) - fast.hop_latency(64) == ns(175)

    def test_event_forward_matches_closed_form(self, sim):
        switch = Switch(sim, "s")
        sim.run_until(switch.forward(256, egress_port="p0"))
        assert sim.now == switch.hop_latency(256)

    def test_egress_contention(self, sim):
        switch = Switch(sim, "s")
        both = sim.all_of(
            [
                sim.spawn(switch.forward(1514, "p0")).done,
                sim.spawn(switch.forward(1514, "p0")).done,
            ]
        )
        sim.run_until(both)
        assert sim.now > switch.hop_latency(1514)

    def test_different_ports_no_contention(self, sim):
        switch = Switch(sim, "s")
        both = sim.all_of(
            [
                sim.spawn(switch.forward(1514, "p0")).done,
                sim.spawn(switch.forward(1514, "p1")).done,
            ]
        )
        sim.run_until(both)
        assert sim.now == switch.hop_latency(1514)


def adjacency(topology):
    """Node → neighbours, from the topology's explicit wiring."""
    neighbours = {node: [] for node in topology.tiers}
    for a, b in topology.links:
        neighbours[a].append(b)
        neighbours[b].append(a)
    return neighbours


def connected(topology):
    """Every node reachable from any one node over ``topology.links``."""
    neighbours = adjacency(topology)
    start = next(iter(neighbours))
    seen = {start}
    frontier = [start]
    while frontier:
        for other in neighbours[frontier.pop()]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(neighbours)


def bfs_shortest_paths(topology, src, dst):
    """Oracle: every shortest ``src`` → ``dst`` path over the wiring,
    sorted; empty when ``dst`` is unreachable."""
    neighbours = adjacency(topology)
    distance = {src: 0}
    predecessors = {src: []}
    frontier = [src]
    while frontier and dst not in distance:
        next_frontier = []
        for node in frontier:
            for other in neighbours[node]:
                if other not in distance:
                    distance[other] = distance[node] + 1
                    predecessors[other] = [node]
                    next_frontier.append(other)
                elif distance[other] == distance[node] + 1:
                    predecessors[other].append(node)
        frontier = next_frontier
    if dst not in distance:
        return []

    def walk(node):
        if node == src:
            return [[src]]
        return [path + [node] for prev in predecessors[node] for path in walk(prev)]

    return sorted(walk(dst))


# Fabric and spine widths include 10/11, where string order puts
# "fab10" before "fab2"; three and more datacenters route through a
# chain of edge routers.
clos_configs = st.builds(
    ClosConfig,
    racks_per_cluster=st.integers(min_value=1, max_value=3),
    hosts_per_rack=st.integers(min_value=1, max_value=3),
    clusters=st.integers(min_value=1, max_value=3),
    fabric_per_cluster=st.sampled_from([1, 2, 3, 10, 11]),
    spines=st.sampled_from([1, 2, 3, 10]),
    datacenters=st.integers(min_value=1, max_value=4),
)


class TestClosPaths:
    """The closed-form ECMP path sets against BFS over the wiring."""

    wide = ClosTopology(ClosConfig(
        racks_per_cluster=2, hosts_per_rack=2, clusters=2,
        fabric_per_cluster=11, spines=10, datacenters=3,
    ))

    @settings(max_examples=100, deadline=None)
    @given(clos_configs, st.data())
    def test_paths_match_bfs_oracle(self, config, data):
        topology = ClosTopology(config)
        hosts = topology.hosts()
        src = data.draw(st.sampled_from(hosts))
        dst = data.draw(st.sampled_from(hosts))
        assert topology.paths(src, dst) == bfs_shortest_paths(topology, src, dst)

    @pytest.mark.parametrize(
        "dst, locality, count",
        [
            ("dc0/c0/r0/h1", Locality.INTRA_RACK, 1),
            ("dc0/c0/r1/h0", Locality.INTRA_CLUSTER, 11),
            ("dc0/c1/r0/h0", Locality.INTRA_DATACENTER, 11 * 10 * 11),
            ("dc1/c0/r0/h0", Locality.INTER_DATACENTER, 11 * 10 * 10 * 11),
            ("dc2/c1/r1/h1", Locality.INTER_DATACENTER, 11 * 10 * 10 * 11),
        ],
    )
    def test_every_locality_on_a_wide_fabric(self, dst, locality, count):
        src = "dc0/c0/r0/h0"
        assert self.wide.classify(src, dst) is locality
        paths = self.wide.paths(src, dst)
        assert len(paths) == count
        assert paths == bfs_shortest_paths(self.wide, src, dst)
        # Either direction of the edge chain.
        assert self.wide.paths(dst, src) == bfs_shortest_paths(self.wide, dst, src)

    def test_same_host_is_one_trivial_path(self):
        assert self.wide.paths("dc1/c0/r1/h0", "dc1/c0/r1/h0") == [["dc1/c0/r1/h0"]]
        assert self.wide.switch_count("dc1/c0/r1/h0", "dc1/c0/r1/h0") == 0

    def test_fab10_sorts_before_fab2(self):
        fabrics = [path[2] for path in self.wide.paths("dc0/c0/r0/h0", "dc0/c0/r1/h0")]
        assert fabrics[:3] == ["dc0/c0/fab0", "dc0/c0/fab1", "dc0/c0/fab10"]

    def test_inter_dc_switch_counts(self):
        assert self.wide.switch_count("dc0/c0/r0/h0", "dc1/c0/r0/h0") == 8
        assert self.wide.switch_count("dc0/c0/r0/h0", "dc2/c0/r0/h0") == 9

    @pytest.mark.parametrize(
        "name", ["dc0/c0/r0/h9", "dc0/spine0", "dc0/c0/r0/tor", "nowhere"]
    )
    def test_unknown_host_rejected(self, name):
        with pytest.raises(ValueError, match="not a host"):
            self.wide.paths("dc0/c0/r0/h0", name)
        with pytest.raises(ValueError, match="not a host"):
            self.wide.paths(name, "dc0/c0/r0/h0")

    def test_unreachable_pair_rejected(self):
        spineless = ClosTopology(ClosConfig(spines=0))
        src, dst = "dc0/c0/r0/h0", "dc0/c1/r0/h0"
        assert bfs_shortest_paths(spineless, src, dst) == []
        with pytest.raises(ValueError, match="no path"):
            spineless.paths(src, dst)


class TestClosTopology:
    topology = ClosTopology()

    def test_host_count(self):
        config = self.topology.config
        expected = (
            config.datacenters * config.clusters * config.racks_per_cluster
            * config.hosts_per_rack
        )
        assert len(self.topology.hosts()) == expected

    def test_fabric_connected(self):
        assert connected(self.topology)

    def test_intra_rack_one_switch(self):
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c0/r0/h1") == 1

    def test_intra_cluster_three_switches(self):
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c0/r1/h0") == 3

    def test_intra_dc_five_switches(self):
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c1/r0/h0") == 5

    def test_classification(self):
        classify = self.topology.classify
        assert classify("dc0/c0/r0/h0", "dc0/c0/r0/h1") is Locality.INTRA_RACK
        assert classify("dc0/c0/r0/h0", "dc0/c0/r1/h0") is Locality.INTRA_CLUSTER
        assert classify("dc0/c0/r0/h0", "dc0/c1/r0/h0") is Locality.INTRA_DATACENTER
        assert classify("dc0/c0/r0/h0", "dc1/c0/r0/h0") is Locality.INTER_DATACENTER

    def test_classify_rejects_non_host(self):
        with pytest.raises(ValueError):
            self.topology.classify("dc0/c0/r0/h0", "dc0/spine0")

    def test_hop_counts_match_structure(self):
        # The locality hop table must agree with shortest paths in the
        # constructed graph for rack/cluster/DC localities.
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c0/r0/h1") == (
            SWITCH_HOPS[Locality.INTRA_RACK]
        )
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c0/r1/h0") == (
            SWITCH_HOPS[Locality.INTRA_CLUSTER]
        )
        assert self.topology.switch_count("dc0/c0/r0/h0", "dc0/c1/r0/h0") == (
            SWITCH_HOPS[Locality.INTRA_DATACENTER]
        )

    def test_path_latency_grows_with_hops(self):
        latencies = [
            self.topology.path_latency(256, locality)
            for locality in (
                Locality.INTRA_RACK,
                Locality.INTRA_CLUSTER,
                Locality.INTRA_DATACENTER,
                Locality.INTER_DATACENTER,
            )
        ]
        assert latencies == sorted(latencies)

    def test_switch_latency_sweep_scales_path(self):
        base = ClosTopology(params=NetworkParams(switch_latency=ns(25)))
        slow = ClosTopology(params=NetworkParams(switch_latency=ns(200)))
        delta = slow.path_latency(64, Locality.INTRA_CLUSTER) - base.path_latency(
            64, Locality.INTRA_CLUSTER
        )
        assert delta == 3 * ns(175)

    def test_custom_config(self):
        small = ClosTopology(ClosConfig(racks_per_cluster=2, hosts_per_rack=2,
                                        clusters=1, datacenters=1))
        assert len(small.hosts()) == 4
        assert connected(small)
