"""The Figure 3 replayer against the placement loop it had of its own.

The reference is ``PlacementReplayer.try_place`` as it stood while the
replayer kept its own fit check and its own preference keys - ``(used,
name)`` for Pack, ``(-colocated, -used, name)`` for Spread - kept
verbatim below with the ``_request`` / ``commit`` / ``release`` it used.

Those keys and the scheduler's ``score_node`` agree on a stated domain,
and the clusters here are drawn from it:

* every node of one GPU type has the same GPU count, so "most GPUs in
  use" and "highest GPU utilization" order the same nodes;
* a node's CPU fraction never exceeds its GPU fraction (CPUs at least
  four per GPU, resident load below the GPU line), so Spread's load is
  the GPU fraction.  Counts are powers of two and loads whole numbers,
  so the two fractions compare exactly in floating point as well.

Random clusters (one to three GPU types, scarce memory included),
resident load on every node, and a sequence of job arrivals (1-4
learners of 1-8 GPUs) and completions are replayed by both under each
policy; every attempt's placement list must be ``==``, with the
reference walking the nodes in a permuted order.  Outside the domain
the replayer follows the scheduler, not the reference (last test).
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.analysis.schedreplay import NodeSpec, PlacementReplayer
from repro.kube import Cluster, SchedulerConfig
from repro.kube.resources import NodeAllocation, NodeCapacity, ResourceRequest
from repro.kube.scheduling.policies import PACK, SPREAD
from repro.sim import Environment, RngRegistry
from repro.workloads.trace import TraceJob

from tests.conftest import examples
from tests.kube.conftest import LEARNER_IMAGE, make_pod


class ReferenceReplayer:
    """The replayer's placement as it was, over its own allocations."""

    def __init__(self, policy: str, allocations: Dict[str, NodeAllocation]):
        self.policy = policy
        self.allocations = allocations

    def _request(self, job: TraceJob) -> ResourceRequest:
        return ResourceRequest(cpus=4.0 * job.gpus_per_learner,
                               memory_gb=24.0 * job.gpus_per_learner,
                               gpus=job.gpus_per_learner,
                               gpu_type=job.gpu_type)

    def try_place(self, job: TraceJob) -> Optional[List[str]]:
        """All-or-nothing placement of every learner; returns node names
        (one per learner) or None, WITHOUT committing."""
        request = self._request(job)
        tentative: Dict[str, Tuple[float, float, int]] = {}
        chosen: List[str] = []
        for _learner in range(job.learners):
            best_name = None
            best_key = None
            for name, alloc in self.allocations.items():
                free_cpus, free_mem, free_gpus = tentative.get(
                    name, (alloc.free_cpus, alloc.free_memory_gb,
                           alloc.free_gpus))
                if alloc.capacity.gpus == 0 or \
                        alloc.capacity.gpu_type != job.gpu_type:
                    continue
                if request.gpus > free_gpus or request.cpus > free_cpus \
                        or request.memory_gb > free_mem:
                    continue
                used = alloc.capacity.gpus - free_gpus
                colocated = chosen.count(name)
                if self.policy == PACK:
                    # Fullest feasible node first.
                    key = (used, name)
                    better = best_key is None or key > best_key
                else:
                    # Spread: avoid colocating this job's learners, then
                    # prefer the emptiest node.
                    key = (-colocated, -used, name)
                    better = best_key is None or key > best_key
                if better:
                    best_key = key
                    best_name = name
            if best_name is None:
                return None
            free_cpus, free_mem, free_gpus = tentative.get(
                best_name, (self.allocations[best_name].free_cpus,
                            self.allocations[best_name].free_memory_gb,
                            self.allocations[best_name].free_gpus))
            tentative[best_name] = (free_cpus - request.cpus,
                                    free_mem - request.memory_gb,
                                    free_gpus - request.gpus)
            chosen.append(best_name)
        return chosen

    def commit(self, job: TraceJob, nodes: List[str]) -> None:
        request = self._request(job)
        for name in nodes:
            self.allocations[name].allocate(request)

    def release(self, job: TraceJob, nodes: List[str]) -> None:
        request = self._request(job)
        for name in nodes:
            self.allocations[name].release(request)


GPU_TYPES = ("K80", "P100", "V100")


@st.composite
def clusters(draw):
    """``(specs, resident load per node name)`` inside the domain."""
    types = draw(st.lists(st.sampled_from(GPU_TYPES), min_size=1,
                          max_size=3, unique=True))
    gpus_of = {gpu_type: draw(st.sampled_from([1, 2, 4, 8]))
               for gpu_type in types}
    specs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        gpu_type = draw(st.sampled_from(types))
        gpus = gpus_of[gpu_type]
        specs.append(NodeSpec(
            count=draw(st.integers(min_value=1, max_value=4)),
            gpus=gpus, gpu_type=gpu_type,
            cpus=float(4 * gpus * draw(st.sampled_from([1, 2, 4]))),
            memory_gb=float(gpus * draw(st.sampled_from([12, 24, 48])))))
    load = {}
    for spec_index, spec in enumerate(specs):
        for i in range(spec.count):
            used = draw(st.integers(min_value=0, max_value=spec.gpus))
            load[f"n{spec_index}-{spec.gpu_type}-{i}"] = ResourceRequest(
                cpus=float(draw(st.integers(
                    min_value=0,
                    max_value=int(spec.cpus) * used // spec.gpus))),
                memory_gb=float(draw(st.integers(
                    min_value=0, max_value=int(spec.memory_gb)))),
                gpus=used, gpu_type=spec.gpu_type if used else None)
    return specs, load


#: An arrival ``(learners, GPUs per learner, GPU type index)`` or the
#: completion of the placed job at an index (modulo the placed count).
_OP = st.one_of(
    st.tuples(st.just("arrive"), st.integers(min_value=1, max_value=4),
              st.sampled_from([1, 1, 2, 4, 8]),
              st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("finish"), st.integers(min_value=0, max_value=7)))


def _nodes(specs) -> Dict[str, NodeAllocation]:
    allocations = {}
    for spec_index, spec in enumerate(specs):
        for i in range(spec.count):
            allocations[f"n{spec_index}-{spec.gpu_type}-{i}"] = \
                NodeAllocation(NodeCapacity(
                    cpus=spec.cpus, memory_gb=spec.memory_gb,
                    gpus=spec.gpus, gpu_type=spec.gpu_type))
    return allocations


@settings(max_examples=examples(100), deadline=None)
@given(cluster=clusters(), ops=st.lists(_OP, min_size=1, max_size=12),
       data=st.data())
def test_replayer_places_as_the_reference(cluster, ops, data):
    specs, load = cluster
    types = sorted({spec.gpu_type for spec in specs})
    fresh = _nodes(specs)
    order = data.draw(st.permutations(list(fresh)))
    for policy in (SPREAD, PACK):
        replayer = PlacementReplayer(policy, tuple(specs))
        allocations = _nodes(specs)
        reference = ReferenceReplayer(
            policy, {name: allocations[name] for name in order})
        for name, request in load.items():
            replayer.allocations[name].allocate(request)
            allocations[name].allocate(request)
        placed: List[Tuple[TraceJob, List[str]]] = []
        for step, op in enumerate(ops):
            if op[0] == "finish":
                if placed:
                    job, nodes = placed.pop(op[1] % len(placed))
                    replayer.release(job, nodes)
                    reference.release(job, nodes)
                continue
            _, learners, gpus, type_index = op
            job = TraceJob(f"job-{step}", 0.0, 1.0, learners, gpus,
                           types[type_index % len(types)])
            expected = reference.try_place(job)
            # try_place reserves what it returns.
            assert replayer.try_place(job) == expected, (policy, step)
            if expected is not None:
                reference.commit(job, expected)
                placed.append((job, expected))
        for name, allocation in allocations.items():
            mine = replayer.allocations[name]
            assert (mine.free_cpus, mine.free_memory_gb, mine.free_gpus) \
                == (allocation.free_cpus, allocation.free_memory_gb,
                    allocation.free_gpus), name


def test_outside_the_domain_the_replayer_places_as_the_scheduler():
    """One 8-GPU and one 4-GPU K80 node with four and three GPUs in use:
    the old Pack key ``(used, name)`` chose the 8-GPU node, the
    scheduler's utilization (0.75 against 0.5) the 4-GPU one."""
    specs = (NodeSpec(1, 8, "K80"), NodeSpec(1, 4, "K80"))
    in_use = {"n0-K80-0": 4, "n1-K80-0": 3}
    replayer = PlacementReplayer(PACK, specs)
    reference = ReferenceReplayer(PACK, _nodes(specs))
    env = Environment()
    cluster = Cluster(env, RngRegistry(0), SchedulerConfig(policy=PACK))
    cluster.push_image(LEARNER_IMAGE)
    for (name, gpus), spec in zip(in_use.items(), specs):
        cluster.add_node(name, NodeCapacity(
            cpus=spec.cpus, memory_gb=spec.memory_gb, gpus=spec.gpus,
            gpu_type=spec.gpu_type), labels={"slot": name})
        request = ResourceRequest(cpus=4.0 * gpus, memory_gb=24.0 * gpus,
                                  gpus=gpus, gpu_type="K80")
        replayer.allocations[name].allocate(request)
        reference.allocations[name].allocate(request)
        resident = make_pod(env, f"resident-{name}", gpus=gpus,
                            cpus=4.0 * gpus, duration=1000.0)
        resident.spec.node_selector = {"slot": name}
        cluster.api.create_pod(resident)
    env.run(until=5)
    probe = make_pod(env, "probe", gpus=1, cpus=4.0, duration=1000.0)
    cluster.api.create_pod(probe)
    env.run(until=10)
    job = TraceJob("probe", 0.0, 1.0, 1, 1, "K80")
    assert reference.try_place(job) == ["n0-K80-0"]
    assert probe.node_name == "n1-K80-0"
    assert replayer.try_place(job) == [probe.node_name]
