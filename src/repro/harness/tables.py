"""Tables I-IV of the paper.

* Table I — input data, pre-trained model and output per network.
* Table II — GPU architectures used for evaluation.
* Table III — per-kernel launch configuration and SRAM usage.
* Table IV — the FPGA platform.

Table III is the load-bearing one: its grid/block geometries are
checked against the paper's listed entries exactly.  All four tables
are analytic (compile-time) experiments: they plan no simulations.
"""

from __future__ import annotations

from repro.core.suite import BENCHMARK_INFO, NETWORK_ORDER
from repro.harness.report import Check
from repro.kernels.compile import compiled_network
from repro.platforms import GK210, GP102, PYNQ_Z1, TX1
from repro.runs import Experiment, RunView
from repro.runs.registry import register

#: Paper Table III entries (kernel name -> (grid, block)) used as the
#: ground truth for the geometry checks.  Names follow our kernel names.
PAPER_TABLE3: dict[str, dict[str, tuple[tuple[int, int, int], tuple[int, int, int]]]] = {
    "gru": {"GRU Layer (t=0)": ((1, 1, 1), (10, 10, 1))},
    "lstm": {"LSTM Layer (t=0)": ((1, 1, 1), (100, 1, 1))},
    "cifarnet": {
        "conv1": ((1, 1, 1), (32, 32, 1)),
        "pool1": ((1, 1, 1), (32, 32, 1)),
        "conv2": ((1, 1, 1), (32, 32, 1)),
        "conv3": ((1, 1, 1), (32, 32, 1)),
        "fc1": ((1, 1, 1), (64, 1, 1)),
        "fc2": ((1, 1, 1), (32, 1, 1)),
    },
    "alexnet": {
        "conv1-1": ((96, 1, 1), (32, 32, 1)),
        "conv1-2": ((96, 1, 1), (32, 23, 1)),
        "conv1-3": ((96, 1, 1), (23, 32, 1)),
        "conv1-4": ((96, 1, 1), (23, 23, 1)),
        "pool1": ((96, 1, 1), (27, 27, 1)),
        "conv2-1": ((128, 1, 1), (27, 27, 1)),
        "conv2-2": ((128, 1, 1), (27, 27, 1)),
        "norm2": ((256, 1, 1), (27, 27, 1)),
        "pool2": ((256, 1, 1), (13, 13, 1)),
        "conv3": ((384, 1, 1), (13, 13, 1)),
        "conv4-1": ((192, 1, 1), (13, 13, 1)),
        "conv4-2": ((192, 1, 1), (13, 13, 1)),
        "conv5-1": ((128, 1, 1), (13, 13, 1)),
        "conv5-2": ((128, 1, 1), (13, 13, 1)),
        "pool5": ((256, 1, 1), (6, 6, 1)),
        "fc6": ((4096, 1, 1), (1, 1, 1)),
        "fc7": ((4096, 1, 1), (1, 1, 1)),
        "fc8": ((1000, 1, 1), (1, 1, 1)),
    },
    "squeezenet": {
        "conv1": ((111, 1, 1), (111, 1, 1)),
        "pool1": ((111, 1, 1), (111, 1, 1)),
        "fire2/squeeze1x1": ((55, 1, 1), (55, 1, 1)),
        "fire2/expand1x1": ((55, 1, 1), (55, 1, 1)),
        "fire5/squeeze1x1": ((27, 1, 1), (27, 1, 1)),
        "fire9/squeeze1x1": ((13, 1, 1), (13, 1, 1)),
        "conv10": ((15, 1, 1), (15, 1, 1)),
        "pool10": ((1, 1, 1), (1000, 1, 1)),
    },
    "resnet": {
        "conv1": ((64, 1, 1), (32, 32, 1)),
        "bn_conv1": ((64, 1, 1), (32, 32, 1)),
        "scale_conv1": ((64, 1, 1), (32, 32, 1)),
        "relu_conv1": ((64, 1, 1), (32, 32, 1)),
        "pool1": ((64, 1, 1), (32, 32, 1)),
        "res2a_branch1": ((256, 1, 1), (32, 32, 1)),
        "res2a_branch2a": ((64, 1, 1), (32, 32, 1)),
        "res2a_eltwise": ((256, 1, 1), (32, 32, 1)),
    },
    "vggnet": {
        "conv1_1": ((16, 16, 64), (14, 14, 1)),
        "conv1_2": ((16, 16, 64), (14, 14, 1)),
        "pool1": ((8, 8, 64), (14, 14, 1)),
        "conv2_1": ((8, 8, 128), (14, 14, 1)),
        "pool2": ((8, 8, 128), (7, 7, 1)),
        "conv3_1": ((8, 8, 256), (7, 7, 1)),
        "pool3": ((7, 7, 256), (4, 4, 1)),
        "conv4_1": ((7, 7, 512), (4, 4, 1)),
        "pool4": ((7, 7, 512), (2, 2, 1)),
        "conv5_1": ((7, 7, 512), (2, 2, 1)),
        "fc6": ((4, 4, 4), (8, 8, 1)),
        "fc8": ((1, 1, 10), (10, 10, 1)),
    },
}


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def _table1_aggregate(view: RunView) -> dict:
    return {
        info.display_name: {
            "input": info.input_description,
            "model": info.model_description,
            "output": info.output_description,
        }
        for info in (BENCHMARK_INFO[name] for name in NETWORK_ORDER)
    }


def _table1_checks(view: RunView, series: dict) -> list[Check]:
    return [
        Check(
            "all seven networks carry Table I metadata",
            len(series) == 7,
            f"{len(series)} networks",
        )
    ]


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------
def _table2_aggregate(view: RunView) -> dict:
    series = {}
    for config in (GK210, TX1, GP102):
        series[config.name] = {
            "cuda_cores": config.total_cuda_cores,
            "sms": config.num_sms,
            "l1_kb": config.l1_size // 1024,
            "l2_kb": config.l2_size // 1024,
            "registers_per_sm": config.registers_per_sm,
            "clock_ghz": config.clock_ghz,
        }
    return series


def _table2_checks(view: RunView, series: dict) -> list[Check]:
    return [
        Check(
            "TX1 has 256 CUDA cores (Table II)",
            TX1.total_cuda_cores == 256,
            f"{TX1.total_cuda_cores}",
        ),
        Check(
            "GP102 has 3584 CUDA cores (Table II)",
            GP102.total_cuda_cores == 3584,
            f"{GP102.total_cuda_cores}",
        ),
        Check(
            "TX1 register file is 32768 per SM (Table II)",
            TX1.registers_per_sm == 32768,
            f"{TX1.registers_per_sm}",
        ),
    ]


# ----------------------------------------------------------------------
# Table III
# ----------------------------------------------------------------------
def _table3_aggregate(view: RunView) -> dict:
    series: dict[str, dict] = {}
    for network in PAPER_TABLE3:
        kernels = {k.name: k for k in compiled_network(network)}
        series[network] = {
            k.name: {
                "grid": list(k.grid),
                "block": list(k.block),
                "regs": k.regs,
                "smem": k.smem_bytes,
                "cmem": k.cmem_bytes,
            }
            for k in list(kernels.values())[:24]
        }
    return series


def _table3_checks(view: RunView, series: dict) -> list[Check]:
    checks: list[Check] = []
    for network, expected in PAPER_TABLE3.items():
        kernels = {k.name: k for k in compiled_network(network)}
        mismatches = []
        for kernel_name, (grid, block) in expected.items():
            kernel = kernels.get(kernel_name)
            if kernel is None:
                mismatches.append(f"{kernel_name}: missing")
            elif kernel.grid != grid or kernel.block != block:
                mismatches.append(
                    f"{kernel_name}: got {kernel.grid}x{kernel.block}, "
                    f"paper {grid}x{block}"
                )
        checks.append(
            Check(
                f"{network}: launch geometry matches the paper's Table III entries",
                not mismatches,
                "; ".join(mismatches) or f"{len(expected)} entries match",
            )
        )
    all_regs = [
        k.regs for network in PAPER_TABLE3 for k in compiled_network(network)
    ]
    checks.append(
        Check(
            "register counts stay in the paper's per-thread ballpark (5-48)",
            all(5 <= r <= 48 for r in all_regs),
            f"min={min(all_regs)} max={max(all_regs)}",
        )
    )
    return checks


# ----------------------------------------------------------------------
# Table IV
# ----------------------------------------------------------------------
def _table4_aggregate(view: RunView) -> dict:
    p = PYNQ_Z1
    return {
        p.name: {
            "processor": p.processor,
            "memory": p.memory,
            "storage_gb": p.storage_gb,
            "programmable_logic": p.programmable_logic,
            "logic_slices": p.logic_slices,
            "bram_kb": p.bram_bytes // 1024,
        }
    }


def _table4_checks(view: RunView, series: dict) -> list[Check]:
    p = PYNQ_Z1
    return [
        Check("Zynq Z7020 with 13,300 logic slices", p.logic_slices == 13300, ""),
        Check("630KB BRAM", p.bram_bytes == 630 * 1024, ""),
    ]


register(
    Experiment(
        exp_id="table1",
        title="Input/Output and Pre-trained Models",
        aggregate=_table1_aggregate,
        checks=_table1_checks,
        render="none",
    )
)

register(
    Experiment(
        exp_id="table2",
        title="GPU architectures used for evaluation",
        aggregate=_table2_aggregate,
        checks=_table2_checks,
        render="none",
    )
)

register(
    Experiment(
        exp_id="table3",
        title="Network Configuration and SRAM Usage",
        aggregate=_table3_aggregate,
        checks=_table3_checks,
        render="none",
        notes="regs/smem/cmem are derived from our builders (approximate); "
        "grid/block geometries are exact.",
    )
)

register(
    Experiment(
        exp_id="table4",
        title="FPGA platform used for evaluation",
        aggregate=_table4_aggregate,
        checks=_table4_checks,
        render="none",
    )
)
