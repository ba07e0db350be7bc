"""The Facebook-style clos fabric (Sec. 5.1).

The paper replays Facebook production traces over a simulated clos
topology [58, 60].  Facebook's published datacenter fabric [60] is a
multi-tier clos: hosts connect to a rack switch (ToR), racks aggregate
through cluster/fabric switches, clusters through spine switches, and
datacenters through edge/WAN routers.  Packet locality therefore fixes
the hop count:

=============  ==========================================  =====
locality       path                                        hops
=============  ==========================================  =====
intra-rack     ToR                                         1
intra-cluster  ToR → fabric → ToR                          3
intra-DC       ToR → fabric → spine → fabric → ToR         5
inter-DC       ... → edge → WAN → edge → ...               7+WAN
=============  ==========================================  =====

The traffic-pattern mix per cluster type follows the paper: database
traffic is mostly inter-cluster and inter-datacenter, webserver mostly
intra-datacenter, hadoop intra-cluster.

Host names encode their coordinates (``dc{d}/c{c}/r{r}/h{h}``), so the
equal-cost shortest paths between two hosts follow in closed form from
their locality: one path per fabric switch inside a cluster, a fabric ×
spine × fabric product inside a datacenter, and fabric × spine × spine ×
fabric through the edge-router chain between datacenters.  The explicit
wiring is kept as a plain link list, the reference those closed forms
are checked against; the latency math uses the per-hop switch model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

from repro.params import NetworkParams
from repro.units import ns, transfer_time


class Locality(enum.Enum):
    """Where a packet's destination sits relative to its source."""

    INTRA_RACK = "intra-rack"
    INTRA_CLUSTER = "intra-cluster"
    INTRA_DATACENTER = "intra-datacenter"
    INTER_DATACENTER = "inter-datacenter"


SWITCH_HOPS: Dict[Locality, int] = {
    Locality.INTRA_RACK: 1,
    Locality.INTRA_CLUSTER: 3,
    Locality.INTRA_DATACENTER: 5,
    Locality.INTER_DATACENTER: 7,
}

INTER_DC_WAN_PROPAGATION = ns(5000)
"""Extra one-way propagation for inter-datacenter traffic (a few km of
metro fiber between availability zones; 5 us one way)."""


@dataclass(frozen=True)
class ClosConfig:
    """Shape of the fabric."""

    racks_per_cluster: int = 4
    hosts_per_rack: int = 4
    clusters: int = 2
    fabric_per_cluster: int = 2
    spines: int = 2
    datacenters: int = 2


class ClosTopology:
    """A multi-tier clos fabric with locality-based path resolution."""

    def __init__(
        self,
        config: Optional[ClosConfig] = None,
        params: Optional[NetworkParams] = None,
    ):
        self.config = config or ClosConfig()
        self.params = params or NetworkParams()
        self.tiers: Dict[str, str] = {}
        """Node name → tier (``host``/``tor``/``fabric``/``spine``/``edge``)."""

        self.links: List[Tuple[str, str]] = []
        """The explicit wiring, one undirected link per pair."""

        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        config = self.config
        tiers = self.tiers
        links = self.links
        for dc in range(config.datacenters):
            edge = f"dc{dc}/edge"
            tiers[edge] = "edge"
            for spine in range(config.spines):
                spine_name = f"dc{dc}/spine{spine}"
                tiers[spine_name] = "spine"
                links.append((spine_name, edge))
            for cluster in range(config.clusters):
                for fabric in range(config.fabric_per_cluster):
                    fabric_name = f"dc{dc}/c{cluster}/fab{fabric}"
                    tiers[fabric_name] = "fabric"
                    for spine in range(config.spines):
                        links.append((fabric_name, f"dc{dc}/spine{spine}"))
                for rack in range(config.racks_per_cluster):
                    tor = f"dc{dc}/c{cluster}/r{rack}/tor"
                    tiers[tor] = "tor"
                    for fabric in range(config.fabric_per_cluster):
                        links.append((tor, f"dc{dc}/c{cluster}/fab{fabric}"))
                    for host in range(config.hosts_per_rack):
                        host_name = f"dc{dc}/c{cluster}/r{rack}/h{host}"
                        tiers[host_name] = "host"
                        links.append((host_name, tor))
        # Inter-DC connectivity through the edge routers.
        edges = [f"dc{dc}/edge" for dc in range(config.datacenters)]
        links.extend(zip(edges, edges[1:]))

    # -- structural queries ---------------------------------------------------

    def hosts(self) -> List[str]:
        """All host node names."""
        return sorted(node for node, tier in self.tiers.items() if tier == "host")

    def switch_count(self, src: str, dst: str) -> int:
        """Number of switch/router hops on the shortest path."""
        return sum(
            1 for node in self.paths(src, dst)[0] if self.tiers[node] != "host"
        )

    def paths(self, src: str, dst: str) -> List[List[str]]:
        """All equal-cost shortest paths between two hosts, sorted.

        Closed form over the host coordinates: the ToRs are fixed by
        the hosts, and every shortest path picks one fabric switch per
        cluster it leaves or enters and one spine per datacenter it
        crosses; inter-DC paths run through each edge router on the
        ``dc0–dc1–…`` chain between the two datacenters.
        """
        for host in (src, dst):
            if self.tiers.get(host) != "host":
                raise ValueError(f"not a host of this topology: {host!r}")
        if src == dst:
            return [[src]]
        locality = self.classify(src, dst)
        src_dc, src_cluster, src_rack = self._coordinates(src)
        dst_dc, dst_cluster, dst_rack = self._coordinates(dst)
        src_tor = f"{src_dc}/{src_cluster}/{src_rack}/tor"
        if locality is Locality.INTRA_RACK:
            return [[src, src_tor, dst]]
        dst_tor = f"{dst_dc}/{dst_cluster}/{dst_rack}/tor"
        config = self.config
        fabrics = range(config.fabric_per_cluster)
        src_fabrics = [f"{src_dc}/{src_cluster}/fab{f}" for f in fabrics]
        if locality is Locality.INTRA_CLUSTER:
            routes = [[src, src_tor, fab, dst_tor, dst] for fab in src_fabrics]
        else:
            dst_fabrics = [f"{dst_dc}/{dst_cluster}/fab{f}" for f in fabrics]
            src_spines = [f"{src_dc}/spine{s}" for s in range(config.spines)]
            if locality is Locality.INTRA_DATACENTER:
                routes = [
                    [src, src_tor, up, spine, down, dst_tor, dst]
                    for up, spine, down in product(
                        src_fabrics, src_spines, dst_fabrics
                    )
                ]
            else:
                dst_spines = [f"{dst_dc}/spine{s}" for s in range(config.spines)]
                first, last = int(src_dc[2:]), int(dst_dc[2:])
                step = 1 if last > first else -1
                chain = [f"dc{dc}/edge" for dc in range(first, last + step, step)]
                routes = [
                    [src, src_tor, up, out, *chain, into, down, dst_tor, dst]
                    for up, out, into, down in product(
                        src_fabrics, src_spines, dst_spines, dst_fabrics
                    )
                ]
        if not routes:
            raise ValueError(f"no path between {src!r} and {dst!r}")
        # Plain string order ("fab10" before "fab2"), the ECMP indexing
        # every flow id hashes into.
        return sorted(routes)

    def classify(self, src: str, dst: str) -> Locality:
        """Locality class of a host pair from their names."""
        src_dc, src_cluster, src_rack = self._coordinates(src)
        dst_dc, dst_cluster, dst_rack = self._coordinates(dst)
        if src_dc != dst_dc:
            return Locality.INTER_DATACENTER
        if src_cluster != dst_cluster:
            return Locality.INTRA_DATACENTER
        if src_rack != dst_rack:
            return Locality.INTRA_CLUSTER
        return Locality.INTRA_RACK

    @staticmethod
    def _coordinates(host: str) -> Tuple[str, str, str]:
        parts = host.split("/")
        if len(parts) != 4:
            raise ValueError(f"not a host name: {host}")
        return parts[0], parts[1], parts[2]

    # -- latency model ---------------------------------------------------------

    def hop_count(self, locality: Locality) -> int:
        """Switch hops for a locality class."""
        return SWITCH_HOPS[locality]

    def path_latency(self, size_bytes: int, locality: Locality) -> int:
        """One-way fabric latency beyond the end-host NICs.

        Per hop: switch pipeline + egress serialization + cable
        propagation (cut-through).  The sender NIC's own serialization
        and MAC/PHY are part of the end-host "wire" segment, so the
        first serialization is *not* double counted here: hop costs
        cover the store-and-forward points inside the fabric.
        """
        hops = self.hop_count(locality)
        framed = max(size_bytes, self.params.min_frame_bytes) + (
            self.params.ethernet_overhead_bytes
        )
        serialization = transfer_time(framed, self.params.link_bytes_per_ps)
        per_hop = self.params.switch_latency + serialization + self.params.propagation
        total = hops * per_hop
        if locality is Locality.INTER_DATACENTER:
            total += INTER_DC_WAN_PROPAGATION
        return total
