"""Table 4 — Throughput scaling of VGG-16/Caffe with CPU threads.

Paper: batch 75; ~66 img/s on 1xP100 and ~107 img/s on 1xV100, flat from
2 CPU threads ("Caffe models performance saturates at 4/8 CPU threads").
"""

import pytest

from repro.analysis import print_table
from repro.perfmodel import P100, V100, VGG16_CAFFE, images_per_sec

from tests.golden import check

PAPER = {
    (P100, 2): 65.96, (P100, 4): 66.14, (P100, 8): 65.67,
    (V100, 2): 106.46, (V100, 4): 106.5, (V100, 8): 107.24,
    (V100, 16): 107.45, (V100, 28): 107.47,
}


def run_table4():
    rows = []
    results = {}
    for threads in (2, 4, 8, 16, 28):
        p100 = images_per_sec(VGG16_CAFFE, P100, threads, batch_size=75)
        v100 = images_per_sec(VGG16_CAFFE, V100, threads, batch_size=75)
        results[threads] = (p100, v100)
        rows.append([threads, f"{p100:.2f}", f"{v100:.2f}",
                     PAPER.get((P100, threads), "-"),
                     PAPER.get((V100, threads), "-")])
    print_table(["CPU threads", "thpt 1xP100", "thpt 1xV100",
                 "paper P100", "paper V100"],
                rows, title="Table 4: VGG-16/Caffe throughput scaling "
                            "(batch 75)")
    return results


def test_table4_caffe_scaling():
    results = run_table4()
    # Published absolute throughputs within 3%.
    for (gpu, threads), published in PAPER.items():
        got = results[threads][0 if gpu == P100 else 1]
        assert got == pytest.approx(published, rel=0.03), (gpu, threads)
    # Saturation: no meaningful gain past 4 threads.
    assert results[28][0] - results[4][0] < 0.01 * results[4][0]
    assert results[28][1] - results[4][1] < 0.01 * results[4][1]
    check("paper/table4", {threads: {P100: p100, V100: v100}
                           for threads, (p100, v100) in results.items()})
