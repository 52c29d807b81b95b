"""Table 1 — Performance overhead of FfDL vs bare-metal servers.

Paper: VGG-16/Caffe and InceptionV3/TensorFlow across 8 job configurations
(1-4 learners x 1-4 GPUs/learner); FfDL's overhead is minimal (<= ~5%).

Reproduction: each configuration is executed end-to-end on the simulated
platform; "bare metal" is the same training run without the platform's
overhead components (Docker, network virtualization/policies, storage
mount driver).  Throughput is measured as images/s over the PROCESSING
phase, exactly as the paper quantifies it.
"""

from repro.analysis import print_table
from repro.core import FfDLPlatform, JobManifest, PlatformConfig
from repro.core import statuses as st
from repro.perfmodel import distributed_images_per_sec, model_spec
from repro.sim import Environment, RngRegistry

from tests.golden import check

CONFIGS = [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4), (4, 2), (4, 4)]
MODELS = [("vgg16", "caffe"), ("inceptionv3", "tensorflow")]

PAPER_ROWS = {
    ("vgg16", "caffe"): [3.29, 0.34, 5.2, 3.76, 2.45, 4.76, 3.2, 5.35],
    ("inceptionv3", "tensorflow"): [0.32, 4.86, 5.15, 1.54, 3.65, 3.96,
                                    4.2, 4.97],
}


def measure_config(model_name, framework, learners, gpus, seed):
    env = Environment()
    platform = FfDLPlatform(env, RngRegistry(seed), PlatformConfig(
        oss_bandwidth_bps=1e11))  # isolate platform overhead from storage
    platform.add_gpu_nodes(max(2, learners), gpus_per_node=4,
                           gpu_type="K80")
    platform.admission.register("bench", gpu_quota=64)
    iterations = 1500
    manifest = JobManifest(
        name=f"t1-{model_name}-{learners}x{gpus}", user="bench",
        framework=framework, model=model_name,
        learners=learners, gpus_per_learner=gpus, gpu_type="K80",
        cpus_per_learner=4.0 * gpus, iterations=iterations,
        dataset_objects=8, dataset_object_bytes=64e6)
    job_id = env.run_until_complete(platform.submit_job(manifest))
    env.run_until_complete(platform.wait_for_terminal(job_id), limit=1e8)
    job = platform.job(job_id)
    assert job.status.current == st.COMPLETED
    # STORING can be coalesced away by the controller's batching; fall
    # back to completion time (the final upload is negligible here).
    end = job.status.time_of(st.STORING) or job.finished_at
    processing_s = end - job.status.time_of(st.PROCESSING)
    spec = model_spec(model_name, framework)
    batch = manifest.batch_size or spec.default_batch_size
    measured = learners * iterations * batch / processing_s
    bare_metal = distributed_images_per_sec(
        spec, "K80", learners, gpus, manifest.effective_cpus(), batch)
    return 100.0 * (1.0 - measured / bare_metal)


def run_table1():
    rows = []
    results = {}
    for model_name, framework in MODELS:
        decreases = []
        for seed, (learners, gpus) in enumerate(CONFIGS):
            decrease = measure_config(model_name, framework, learners,
                                      gpus, seed)
            decreases.append(decrease)
            rows.append([f"{model_name}/{framework}",
                         f"{learners}L x {gpus}GPU/L",
                         f"{decrease:.2f}%",
                         f"{PAPER_ROWS[(model_name, framework)][CONFIGS.index((learners, gpus))]:.2f}%"])
        results[(model_name, framework)] = decreases
    print_table(["model", "config", "measured decrease", "paper"],
                rows, title="Table 1: FfDL overhead vs bare metal")
    return results


def test_table1_overhead():
    results = run_table1()
    for key, decreases in results.items():
        # The paper's headline: overhead is minimal, bounded by ~5-6%.
        assert all(0.0 < d < 7.0 for d in decreases), (key, decreases)
        # And grows (noisily) with the distribution footprint: the largest
        # config should exceed the smallest single-GPU overhead.
        assert max(decreases[2:]) >= min(decreases[:2])
    check("paper/table1", {
        f"{model}/{framework}": {
            f"{learners}Lx{gpus}G": decrease
            for (learners, gpus), decrease in zip(CONFIGS, decreases)}
        for (model, framework), decreases in results.items()})
