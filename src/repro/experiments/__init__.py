"""Experiment reproductions — one module per table/figure of the paper.

==============  ===========================================================
module          reproduces
==============  ===========================================================
``oneway``      shared machinery: single-packet one-way latency measurement
``fig4``        Fig. 4 — dNIC / dNIC.zcpy / iNIC / iNIC.zcpy + pcie.overh
``fig5``        Fig. 5 — iperf bandwidth vs. MLC memory pressure
``fig7``        Fig. 7 — DMA burst spatial/temporal locality
``table1``      Table 1 — system configuration report
``fig11``       Fig. 11 — latency breakdown: PCIe NIC / iNIC / NetDIMM
``fig12a``      Fig. 12(a) — normalized latency on Facebook traces
``fig12b``      Fig. 12(b) — co-runner memory latency under DPI / L3F
``bandwidth``   Sec. 5.2 — NetDIMM sustains 40 Gb/s line rate
``ablation``    design-choice ablations (nCache, nPrefetcher, RowClone,
                header split, allocCache)
==============  ===========================================================

Every experiment exposes ``run(...) -> result dataclass`` and
``format_report(result) -> str``; ``repro.experiments.runner`` drives
them all and writes EXPERIMENTS.md-style output.
"""

from repro.experiments.oneway import OneWayResult, measure_one_way, make_node

__all__ = [
    "OneWayResult",
    "make_node",
    "measure_one_way",
]
