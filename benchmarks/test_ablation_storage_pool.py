"""Ablation — dynamic NFS provisioning vs a pre-allocated volume pool.

Section 4 (lessons learned): "provisioning NFS volumes was slow and often
failed under high load.  Attempts to address this with a microservice to
pre-allocate and manage a pool of NFS volumes only increased the
complexity of the system."

Ablation: a burst of concurrent volume acquisitions against (a) the raw
dynamic provisioner and (b) the warm pool.  The pool is dramatically
faster and failure-free while warm — and degrades right back to dynamic
behaviour once drained, which is the operational complexity trap the
paper describes.
"""

from repro.analysis import print_table
from repro.errors import ProvisioningError
from repro.nfs import NFSProvisioner, VolumePool
from repro.sim import Environment, RngRegistry

from tests.golden import check

BURST = 24


def run_burst(use_pool):
    env = Environment()
    provisioner = NFSProvisioner(env, RngRegistry(3))
    pool = None
    if use_pool:
        pool = VolumePool(env, provisioner, target_size=12,
                          refill_interval_s=5.0)
        env.run(until=400)  # warm the pool
    source = pool if pool is not None else provisioner
    outcomes = {"latencies": [], "failures": 0}

    def acquire():
        start = env.now
        try:
            yield source.acquire() if pool is not None else \
                provisioner.provision()
            outcomes["latencies"].append(env.now - start)
        except ProvisioningError:
            outcomes["failures"] += 1

    begin = env.now
    for _ in range(BURST):
        env.process(acquire())
    env.run(until=begin + 600)
    return outcomes


def run_ablation():
    dynamic = run_burst(use_pool=False)
    pooled = run_burst(use_pool=True)
    rows = []
    for name, outcome in (("dynamic provisioning", dynamic),
                          ("pre-allocated pool", pooled)):
        latencies = outcome["latencies"]
        mean = sum(latencies) / len(latencies) if latencies else float("nan")
        rows.append([name, len(latencies), outcome["failures"],
                     f"{mean:.1f}s",
                     f"{max(latencies):.1f}s" if latencies else "-"])
    print_table(["strategy", "succeeded", "failed", "mean latency",
                 "max latency"],
                rows, title=f"Ablation: {BURST}-volume provisioning burst")
    return dynamic, pooled


def test_ablation_storage_pool():
    dynamic, pooled = run_ablation()
    # The paper's observation: dynamic provisioning fails under load.
    assert dynamic["failures"] > 0
    # The warm pool absorbs the first half of the burst instantly, so its
    # mean latency is far lower and fewer (or no) requests fail.
    mean_dynamic = sum(dynamic["latencies"]) / len(dynamic["latencies"])
    mean_pooled = sum(pooled["latencies"]) / len(pooled["latencies"])
    assert mean_pooled < mean_dynamic / 2
    assert pooled["failures"] <= dynamic["failures"]
    check("paper/ablation-storage-pool", {"dynamic": dynamic,
                                          "pool": pooled})
