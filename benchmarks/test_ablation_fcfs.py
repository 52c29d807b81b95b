"""Ablation — the largest-gang-first FCFS tiebreak (Section 3.6).

"The corner case when multiple jobs arrive at the same instant, the FCFS
conflict is resolved by picking the largest gang (job) first."

Ablation: a simultaneous burst of one large job and many small ones onto
a nearly-full cluster.  Largest-first guarantees the big (expensive,
usually highest-value) job wins the tiebreak instead of being nibbled out
of capacity by small jobs.
"""

from repro.analysis import print_table
from repro.kube import Cluster, NodeCapacity, SchedulerConfig
from repro.kube.scheduling.framework import PER_POD_LATENCY_S
from repro.sim import Environment, RngRegistry
from repro.workloads.synthetic import submit_gang_jobs

from tests.golden import check


def run_burst(largest_first):
    env = Environment()
    config = SchedulerConfig(policy="pack", gang=True)
    cluster = Cluster(env, RngRegistry(2), config)
    from repro.docker import Image
    cluster.push_image(Image("learner", size_bytes=1e6))
    cluster.add_nodes(2, NodeCapacity(cpus=64, memory_gb=512, gpus=4,
                                      gpu_type="K80"))
    if not largest_first:
        # Plain FCFS: disable the size tiebreak by patching the pass
        # ordering to arrival-then-name.
        scheduler = cluster.scheduler

        def plain_order():
            return sorted(scheduler._gangs.values(),
                          key=lambda g: (g.arrival_time, g.key))

        original = scheduler._gang_pass

        def patched_pass():
            order = plain_order()
            for entry in order:
                if entry.key not in scheduler._gangs:
                    continue
                yield env.timeout(PER_POD_LATENCY_S *
                                  max(1, len(entry.pod_names)))
                yield from scheduler._attempt_gang(entry)

        scheduler._gang_pass = patched_pass
    # Simultaneous burst: one 2Lx4G job ("aaa" sorts first under plain
    # FCFS? no: small jobs named syn-1x2-*, big named syn-2x4-0; plain
    # FCFS ties on arrival_time and falls back to name order).
    small = submit_gang_jobs(env, cluster, learners=1, gpus_per_learner=2,
                             jobs=4)
    big = submit_gang_jobs(env, cluster, learners=2, gpus_per_learner=4,
                           jobs=1)
    env.run(until=60)
    big_pods = next(iter(big.values()))
    big_running = all(p.phase == "Running" for p in big_pods)
    small_running = sum(1 for pods in small.values()
                        if all(p.phase == "Running" for p in pods))
    return big_running, small_running, cluster.gpu_utilization()


def run_ablation():
    largest = run_burst(largest_first=True)
    plain = run_burst(largest_first=False)
    print_table(
        ["tiebreak", "8-GPU job running", "2-GPU jobs running",
         "GPU utilization"],
        [["largest gang first (FfDL)", largest[0], largest[1],
          f"{largest[2]:.0%}"],
         ["plain FCFS", plain[0], plain[1], f"{plain[2]:.0%}"]],
        title="Ablation: simultaneous-arrival tiebreak")
    return largest, plain


def test_ablation_largest_gang_first():
    largest, plain = run_ablation()
    # FfDL's tiebreak runs the big job; plain order lets the small jobs
    # fragment the cluster and strand it.
    assert largest[0] is True
    assert plain[0] is False
    assert plain[1] > 0
    check("paper/ablation-fcfs", {
        tiebreak: {"big_job_running": run[0], "small_jobs_running": run[1],
                   "gpu_utilization": run[2]}
        for tiebreak, run in (("largest-first", largest), ("plain", plain))})
