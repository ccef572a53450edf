"""Table 3 — comparison with CPU, GPU and related FPGA accelerators.

Paper protocol: LeNet on MNIST (the common denominator of prior work),
T = 3 Monte-Carlo samples.  The hand-crafted baseline uses uniform
Bernoulli dropout on CPU/GPU; "our work" deploys the aPE-optimal
searched configuration on the XCKU115.  Related-work rows (VIBNN,
BYNQNet, TPDS'22) are quoted from their papers, exactly as the paper
itself quotes them.

Expected reproduction shape:

* our latency beats the CPU (paper: 1.4x) and the FC-only designs
  (paper: 6.1x / 5.0x vs VIBNN / BYNQNet);
* our power is tens of times below CPU/GPU (paper: 52.6x / 60.5x);
* our energy per image is the lowest row (paper: 33x-65x vs GPU/CPU);
* the searched aPE beats the hand-crafted uniform-Bernoulli aPE.
"""

import pytest

from benchmarks.conftest import EVOLUTION
from repro.api import SearchStage, build_design
from repro.api.stages import ensure_evaluator
from repro.hw import (
    CPU_I9_9900K,
    GPU_RTX_2080,
    QUOTED_DESIGNS,
    trace_network,
)


@pytest.fixture(scope="module")
def table3(lenet_ctx):
    """Gather every row of the comparison."""
    ctx = lenet_ctx

    # Hand-crafted baseline: uniform Bernoulli (paper Sec. 4.2).
    bernoulli = ensure_evaluator(ctx, True).evaluate(("B", "B", "B"))

    # Ours: the aPE-optimal searched design on the FPGA model.
    result = SearchStage().search_one(ctx, "ape", evolution=EVOLUTION)
    design, _ = build_design(ctx, result.best_config)

    ctx.supernet.set_config(("B", "B", "B"))
    netlist = trace_network(ctx.supernet.model, ctx.input_shape)

    rows = {}
    for key, platform in (("CPU", CPU_I9_9900K), ("GPU", GPU_RTX_2080)):
        rows[key] = {
            "platform": platform.name,
            "freq": platform.frequency_mhz,
            "tech": platform.technology_nm,
            "power": platform.measured_power_w,
            "ape": bernoulli.report.ape,
            "latency": platform.latency_ms(netlist, 3),
            "energy": platform.energy_per_image_j(netlist, 3),
        }
    for design_point in QUOTED_DESIGNS.values():
        rows[design_point.citation] = {
            "platform": design_point.platform,
            "freq": design_point.frequency_mhz,
            "tech": design_point.technology_nm,
            "power": design_point.power_w,
            "ape": design_point.ape_nats,
            "latency": design_point.latency_ms,
            "energy": design_point.energy_per_image_j,
        }
    report = design.report
    rows["Our Work"] = {
        "platform": report.perf.config.device.name,
        "freq": report.clock_mhz,
        "tech": report.perf.config.device.technology_nm,
        "power": report.total_power_w,
        "ape": result.best.report.ape,
        "latency": report.latency_ms,
        "energy": report.energy_per_image_j,
    }
    return ctx, rows, bernoulli, result


def test_table3_rows(table3, emit_table, benchmark):
    ctx, rows, bernoulli, _ = table3

    ctx.supernet.set_config(("B", "B", "B"))
    netlist = trace_network(ctx.supernet.model, ctx.input_shape)
    benchmark.pedantic(lambda: CPU_I9_9900K.latency_ms(netlist, 3),
                       rounds=5, iterations=10)

    table_rows = []
    for label, row in rows.items():
        table_rows.append([
            label,
            row["platform"],
            f"{row['freq']:.0f}",
            f"{row['tech']} nm",
            f"{row['power']:.2f}",
            "-" if row["ape"] is None else f"{row['ape']:.3f}",
            f"{row['latency']:.3f}",
            f"{row['energy']:.4f}",
        ])
    emit_table(
        "table3", "Table 3 — comparison with CPU/GPU and related work "
        "(LeNet, T=3)",
        ["Design", "Platform", "Freq(MHz)", "Tech", "Power(W)",
         "aPE(nats)", "Latency(ms)", "Energy(J/img)"],
        table_rows)

    ours = rows["Our Work"]
    cpu = rows["CPU"]
    gpu = rows["GPU"]

    # Speed: faster than CPU (paper: 1.4x).
    assert ours["latency"] < cpu["latency"]
    # Power: tens of times below CPU and GPU (paper: 52.6x / 60.5x).
    assert cpu["power"] / ours["power"] > 20.0
    assert gpu["power"] / ours["power"] > 20.0
    # Energy: ours is the single lowest row (paper's headline).
    others = [r["energy"] for label, r in rows.items()
              if label != "Our Work"]
    assert ours["energy"] < min(others)
    # Energy-efficiency factors vs CPU/GPU exceed 10x (paper: 65x/33x).
    assert cpu["energy"] / ours["energy"] > 10.0
    assert gpu["energy"] / ours["energy"] > 10.0


def test_table3_searched_ape_beats_handcrafted(table3, benchmark):
    """The auto-searched design out-aPEs uniform Bernoulli (Sec. 4.2)."""
    _, rows, bernoulli, result = table3
    benchmark.pedantic(lambda: result.best.report.ape, rounds=1,
                       iterations=1)
    assert result.best.report.ape >= bernoulli.report.ape - 1e-9


def test_table3_related_work_speedups(table3, benchmark):
    """Latency vs the FC-only accelerators (paper: 6.1x and 5.0x)."""
    _, rows, _, _ = table3
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ours = rows["Our Work"]["latency"]
    assert rows["ASPLOS'18 [3]"]["latency"] / ours > 2.0
    assert rows["DATE'20 [1]"]["latency"] / ours > 2.0
