"""Ablation — BSA's packing objective vs a load-balancing objective.

Section 3.5: BSA takes "an objective function, such as load balancing";
FfDL chose GPU packing because "in a DL platform, GPU is typically a
scarce resource".  This ablation shows why: under the balance objective
the gang scheduler spreads gangs across machines, recreating exactly the
fragmentation that Pack (Section 3.4) exists to prevent — a subsequent
whole-node job cannot be placed.
"""

from repro.analysis import print_table
from repro.docker import Image
from repro.kube import Cluster, NodeCapacity, SchedulerConfig
from repro.sim import Environment, RngRegistry
from repro.workloads.synthetic import submit_gang_jobs

from tests.golden import check


def run_with_objective(objective):
    env = Environment()
    config = SchedulerConfig(policy="pack", gang=True,
                             bsa_objective=objective)
    cluster = Cluster(env, RngRegistry(4), config)
    cluster.push_image(Image("learner", size_bytes=1e6))
    cluster.add_nodes(4, NodeCapacity(cpus=64, memory_gb=512, gpus=4,
                                      gpu_type="K80"))
    # Four 1-learner x 1-GPU gangs, then one whole-node (4-GPU) gang.
    submit_gang_jobs(env, cluster, learners=1, gpus_per_learner=1, jobs=4)
    env.run(until=30)
    nodes_used = sum(1 for a in cluster.allocations.values()
                     if a.allocated_gpus > 0)
    big = submit_gang_jobs(env, cluster, learners=1, gpus_per_learner=4,
                           jobs=1)
    env.run(until=60)
    big_pods = next(iter(big.values()))
    big_running = all(p.phase == "Running" for p in big_pods)
    return nodes_used, big_running


def run_ablation():
    pack = run_with_objective("pack")
    balance = run_with_objective("balance")
    print_table(
        ["BSA objective", "nodes used by 4 small gangs",
         "4-GPU gang schedulable?"],
        [["pack (FfDL)", pack[0], "yes" if pack[1] else "NO"],
         ["balance", balance[0], "yes" if balance[1] else "NO"]],
        title="Ablation: BSA objective function")
    return pack, balance


def test_ablation_bsa_objective():
    pack, balance = run_ablation()
    assert pack[0] == 1  # packing crams the small gangs onto one node
    assert pack[1] is True
    assert balance[0] == 4  # balancing spreads them across all nodes
    assert balance[1] is False  # ... stranding the whole-node job
    check("paper/ablation-bsa-objective", {
        objective: {"nodes_used": nodes_used, "big_gang_running": running}
        for objective, (nodes_used, running) in (("pack", pack),
                                                 ("balance", balance))})
