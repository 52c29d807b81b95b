"""Table 6 — TensorFlow throughput + GPU utilization vs CPU threads.

Paper: 1xV100, batch 128.  InceptionV3 keeps scaling to 28 threads
(217.8 -> 223.6 img/s); ResNet-50 and VGG-16 are already saturated at 16.
GPU utilizations shown in parentheses (86.8-98.7%).
"""

import pytest

from repro.analysis import print_table
from repro.perfmodel import (
    INCEPTIONV3_TF,
    RESNET50_TF,
    V100,
    VGG16_TF,
    gpu_utilization,
    images_per_sec,
)

from tests.golden import check

PAPER = {
    ("inceptionv3", 16): (217.8, 86.8), ("inceptionv3", 28): (223.6, 90.5),
    ("resnet50", 16): (345.3, 93.3), ("resnet50", 28): (345.8, 92.7),
    ("vgg16", 16): (216.2, 98.7), ("vgg16", 28): (216.2, 97.3),
}


def run_table6():
    rows = []
    results = {}
    for threads in (16, 28):
        row = [threads]
        for model in (INCEPTIONV3_TF, RESNET50_TF, VGG16_TF):
            thpt = images_per_sec(model, V100, threads, batch_size=128)
            util = 100.0 * gpu_utilization(model, threads)
            results[(model.name, threads)] = (thpt, util)
            paper_thpt, paper_util = PAPER[(model.name, threads)]
            row.append(f"{thpt:.1f} ({util:.1f}%) "
                       f"[paper {paper_thpt} ({paper_util}%)]")
        rows.append(row)
    print_table(["CPU threads", "InceptionV3", "ResNet-50", "VGG-16"],
                rows, title="Table 6: TensorFlow scaling on 1xV100 "
                            "(batch 128)")
    return results


def test_table6_tf_scaling():
    results = run_table6()
    for key, (paper_thpt, paper_util) in PAPER.items():
        thpt, util = results[key]
        assert thpt == pytest.approx(paper_thpt, rel=0.03), key
        assert util == pytest.approx(paper_util, abs=3.0), key
    # Inception benefits from 28 threads; the others are flat.
    assert results[("inceptionv3", 28)][0] > \
        results[("inceptionv3", 16)][0] * 1.01
    assert results[("vgg16", 28)][0] == \
        pytest.approx(results[("vgg16", 16)][0], rel=0.005)
    check("paper/table6", {
        f"{model}/{threads}": {"images_per_s": thpt, "gpu_util_pct": util}
        for (model, threads), (thpt, util) in results.items()})
