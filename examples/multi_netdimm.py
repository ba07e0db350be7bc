#!/usr/bin/env python3
"""A host with several NetDIMMs: zones, flex mapping, flow steering.

Sec. 4.2.1 allows any number of NetDIMMs; each gets its own NET*i*
memory zone, sits single-channel in the flex-interleaved address space,
and serves the connections steered to it.  This example builds a
two-NetDIMM host, shows the unified address-space layout, steers a set
of flows, and demonstrates that the two devices work in parallel
without sharing an nMC.

Run:  python examples/multi_netdimm.py
"""

from repro.core.system import NetDIMMSystem
from repro.sim import Simulator
from repro.units import fmt_size, to_us


def main() -> None:
    sim = Simulator()
    system = NetDIMMSystem(sim, "host", num_netdimms=2)

    print("Unified physical address space (Fig. 10):")
    for region in system.mapping.regions:
        mode = region.mode.value
        channels = ",".join(str(c) for c in region.channels)
        print(
            f"  [{region.base:#014x} .. {region.end:#014x})  "
            f"{fmt_size(region.size):>9}  {mode:<7} on channel(s) {channels}"
        )

    print("\nMemory zones:")
    for zone in system.zones:
        print(f"  {zone.name:<12} base={zone.base:#x}  {fmt_size(zone.size)}")

    print("\nSteering 8 flows:")
    for flow in range(8):
        slot = system.netdimm_for_flow(flow)
        print(f"  flow {flow} -> NetDIMM {slot.index} (zone {slot.zone.name})")
    print(f"  balance: {system.flow_balance()}")

    print("\nBoth NetDIMMs receiving in parallel:")
    slot_a, slot_b = system.slots
    start = sim.now
    rx_a = slot_a.device.nic_receive_dma(slot_a.zone.base + 0x10000, 1514, slot_a.zone.base)
    rx_b = slot_b.device.nic_receive_dma(slot_b.zone.base + 0x10000, 1514, slot_b.zone.base)
    # Each deposit is a sub-transaction; spawning both runs them concurrently.
    sim.run_until(sim.all_of([sim.spawn(rx_a).done, sim.spawn(rx_b).done]))
    parallel = sim.now - start
    print(f"  two MTU packets deposited in {to_us(parallel):.3f} us total "
          "(each on its own nMC — no cross-DIMM contention)")
    for slot in system.slots:
        print(
            f"  NetDIMM {slot.index}: rx_packets="
            f"{slot.device.stats.get_counter('rx_packets')}, "
            f"header cached: {slot.device.ncache.occupancy()} line(s)"
        )


if __name__ == "__main__":
    main()
