"""A cell sizes its nodes from their GPUs alone: at least 64 CPUs and
512 GB, and 28 CPUs and 48 GB per GPU, so CPU never starves the GPUs
(t-shirt sizing puts up to 26 CPUs behind one V100)."""

import pytest

from repro.federation import Cell, CellSpec
from repro.sim import Environment, RngRegistry


@pytest.mark.parametrize("gpus, cpus, memory_gb", [
    (2, 64.0, 512.0),
    (4, 112.0, 512.0),
    (8, 224.0, 512.0),
    (32, 896.0, 1536.0),
])
def test_a_cell_sizes_its_nodes_from_their_gpus(gpus, cpus, memory_gb):
    cell = Cell(Environment(), RngRegistry(0), CellSpec(
        "cell-a", "zone-a", gpu_nodes=2, gpus_per_node=gpus,
        gpu_type="V100"))
    assert [(name, alloc.capacity.cpus, alloc.capacity.memory_gb,
             alloc.capacity.gpus, alloc.capacity.gpu_type)
            for name, alloc in cell.platform.cluster.allocations.items()] \
        == [(f"node-V100-{index}", cpus, memory_gb, gpus, "V100")
            for index in range(2)]
