"""Tables I–III: structural artifacts (encoding, classification, config).

These don't need simulation: Table I is the LI bit encoding, Table II the
PB-count classification, Table III the modeled system configuration.
"""

from __future__ import annotations

from repro.common.params import all_configs, d2m_fs, d2m_ns
from repro.core.li import LI, LICodec
from repro.core.regions import RegionClass
from repro.experiments.tables import render_table


def table1() -> str:
    """Table I: the location-information encoding, far- and near-side."""
    fs = LICodec(nodes=8, l1_ways=8, l2_ways=8, llc_ways=32)
    ns = LICodec(nodes=8, l1_ways=8, l2_ways=8, llc_ways=32, near_side=True)
    samples = [
        ("In NodeID 5", LI.in_node(5)),
        ("In L1-D, way 3", LI.in_l1(3, instr=False)),
        ("In L1-I, way 3", LI.in_l1(3, instr=True)),
        ("In L2, way 6", LI.in_l2(6)),
        ("MEM symbol", LI.mem()),
        ("INVALID symbol", LI.invalid()),
        ("In LLC, way 21", LI.in_llc(21)),
    ]
    rows = [[desc, format(fs.encode(li), f"0{fs.bits}b"), str(li)]
            for desc, li in samples]
    rows.append(["NS: slice 5, way 2",
                 format(ns.encode(LI.in_slice(5, 2)), f"0{ns.bits}b"),
                 str(LI.in_slice(5, 2))])
    note = (f"\n  {fs.bits} bits/pointer (paper: 6; +1 models the explicit "
            f"L1-I/L1-D flag, see repro.core.li)")
    return render_table(
        ["meaning", "encoding", "decoded"],
        rows,
        title="Table I - Location Information encoding",
    ) + note


def table2() -> str:
    """Table II: region classification from the Presence-Bit count."""
    rows = [
        ["no MD3 entry", RegionClass.UNCACHED.value,
         "create entry; becomes private (D4)"],
        ["#PB == 0", RegionClass.UNTRACKED.value,
         "LLC evictions need no metadata coherence"],
        ["#PB == 1", RegionClass.PRIVATE.value,
         "direct reads AND writes; no coherence at all"],
        ["#PB > 1", RegionClass.SHARED.value,
         "direct reads; writes serialize at MD3 (event C)"],
    ]
    return render_table(
        ["presence bits", "class", "consequence"],
        rows,
        title="Table II - Region classification",
    )


def table3() -> str:
    """Table III: the modeled system configurations."""
    rows = []
    for config in all_configs():
        llc = (f"{config.llc.size // (1024 * 1024)}MB "
               f"{config.llc.ways}-way "
               f"{config.llc_placement.value}")
        l2 = (f"{config.l2.size // 1024}kB {config.l2.ways}-way"
              if config.l2 else "-")
        md = (f"{config.md1.regions}/{config.md2.regions}/"
              f"{config.md3.regions}" if config.is_d2m else "-")
        extras = []
        if config.policy.replicate_instructions:
            extras.append("repl")
        if config.policy.dynamic_indexing:
            extras.append("idx")
        rows.append([
            config.name, config.nodes,
            f"{config.l1d.size // 1024}kB {config.l1d.ways}-way",
            l2, llc, md, "+".join(extras) or "-",
        ])
    lat = d2m_fs().latency
    note = (f"\n  64B lines, {d2m_fs().region_lines}-line regions; "
            f"latencies: L1 {lat.l1}, L2 {lat.l2}, LLC {lat.llc} "
            f"(data {lat.llc_data}), NoC {lat.noc}, MEM {lat.memory}, "
            f"MD2 {lat.md2}, MD3 {lat.md3} cycles; "
            f"NS slice: {d2m_ns().llc_slice.size // 1024}kB "
            f"{d2m_ns().llc_slice.ways}-way")
    return render_table(
        ["system", "nodes", "L1 (x2)", "L2", "LLC", "MD1/2/3 regions",
         "opts"],
        rows,
        title="Table III - Simulated system parameters",
    ) + note


def main() -> None:
    print(table1())
    print()
    print(table2())
    print()
    print(table3())


if __name__ == "__main__":
    main()
