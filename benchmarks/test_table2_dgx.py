"""Table 2 — FfDL (PCIe servers) vs NVIDIA DGX-1 bare metal.

Paper: TensorFlow HPM benchmarks on P100; the gap is modest (3.3-13.7%),
growing with GPU count and largest for VGG-16 — despite DGX-1's 2-3x cost.
"""

import random

from repro.analysis import print_table
from repro.perfmodel import (
    INCEPTIONV3_TF,
    P100,
    RESNET50_TF,
    VGG16_TF,
    overhead_vs_dgx1,
)

from tests.golden import check

PAPER = {
    ("inceptionv3", 1): 3.30, ("resnet50", 1): 7.07, ("vgg16", 1): 7.84,
    ("inceptionv3", 2): 10.06, ("resnet50", 2): 10.53, ("vgg16", 2): 13.69,
}


def run_table2():
    rows = []
    results = {}
    for n_gpus in (1, 2):
        for model in (INCEPTIONV3_TF, RESNET50_TF, VGG16_TF):
            gap = 100.0 * overhead_vs_dgx1(model, P100, 16, n_gpus,
                                           rng=random.Random(7))
            results[(model.name, n_gpus)] = gap
            rows.append([model.name, "TF", n_gpus, P100,
                         f"{gap:.2f}%",
                         f"{PAPER[(model.name, n_gpus)]:.2f}%"])
    print_table(["benchmark", "framework", "# GPUs", "GPU type",
                 "measured difference", "paper"],
                rows, title="Table 2: FfDL vs DGX-1 bare metal")
    return results


def test_table2_dgx_gap():
    results = run_table2()
    for (model, n), gap in results.items():
        assert 0.0 < gap < 16.0, (model, n, gap)
        # Within 4 percentage points of the published value.
        assert abs(gap - PAPER[(model, n)]) < 4.0, (model, n, gap)
    # Two GPUs always cost more relative to DGX-1 than one.
    for model in ("inceptionv3", "resnet50", "vgg16"):
        assert results[(model, 2)] > results[(model, 1)]
    # VGG-16 (bandwidth-bound) suffers the most on PCIe.
    assert results[("vgg16", 1)] > results[("inceptionv3", 1)]
    check("paper/table2", {f"{model}/{n}gpu": gap
                           for (model, n), gap in results.items()})
