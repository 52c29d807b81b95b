"""Deep-learning model/framework specifications.

Peak throughputs are calibrated on a V100 at CPU saturation so that the
published measurements fall out of the throughput model:

* Table 4 — VGG-16/Caffe, batch 75: ~66 img/s on 1xP100, ~107 img/s on
  1xV100, flat from 2 CPU threads (Caffe saturates almost immediately).
* Table 6 — TensorFlow on 1xV100, batch 128: InceptionV3 ~218->224 img/s
  from 16 to 28 threads (keeps scaling), ResNet-50 ~345 img/s and VGG-16
  ~216 img/s (already saturated at 16 threads).

``cpu_half_k`` is the half-saturation constant of the CPU-thread scaling
curve ``t / (t + k)``; ``dgx_speedup`` is the single-GPU advantage of
DGX-1's NVLink/HBM platform for this model (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Tuple

CAFFE = "caffe"
TENSORFLOW = "tensorflow"
PYTORCH = "pytorch"
FRAMEWORKS = (CAFFE, TENSORFLOW, PYTORCH)


@dataclass(frozen=True)
class ModelSpec:
    """One benchmark model on one framework."""

    name: str
    framework: str
    #: img/s on a single V100 with saturated CPU feeding.
    peak_v100_images_per_s: float
    #: CPU-thread half-saturation constant for t/(t+k) scaling.
    cpu_half_k: float
    #: Peak GPU utilization achievable (fraction).
    peak_gpu_utilization: float
    #: Single-GPU DGX-1 platform speedup vs a PCIe server.
    dgx_speedup: float
    #: Calibration batch size.
    default_batch_size: int
    #: Mean compressed training-sample size (bytes) for streaming demand.
    sample_bytes: ClassVar[float] = 110_000.0


VGG16_CAFFE = ModelSpec("vgg16", CAFFE,
                        peak_v100_images_per_s=107.6, cpu_half_k=0.02,
                        peak_gpu_utilization=0.99, dgx_speedup=1.055,
                        default_batch_size=75)
VGG16_TF = ModelSpec("vgg16", TENSORFLOW,
                     peak_v100_images_per_s=216.2, cpu_half_k=0.01,
                     peak_gpu_utilization=0.988, dgx_speedup=1.055,
                     default_batch_size=128)
RESNET50_TF = ModelSpec("resnet50", TENSORFLOW,
                        peak_v100_images_per_s=346.4, cpu_half_k=0.05,
                        peak_gpu_utilization=0.94, dgx_speedup=1.045,
                        default_batch_size=128)
INCEPTIONV3_TF = ModelSpec("inceptionv3", TENSORFLOW,
                           peak_v100_images_per_s=231.8, cpu_half_k=1.03,
                           peak_gpu_utilization=0.92, dgx_speedup=1.01,
                           default_batch_size=128)
RESNET50_CAFFE = ModelSpec("resnet50", CAFFE,
                           peak_v100_images_per_s=330.0, cpu_half_k=0.05,
                           peak_gpu_utilization=0.94, dgx_speedup=1.045,
                           default_batch_size=64)
INCEPTIONV3_PYTORCH = ModelSpec("inceptionv3", PYTORCH,
                                peak_v100_images_per_s=228.0,
                                cpu_half_k=0.8,
                                peak_gpu_utilization=0.92, dgx_speedup=1.01,
                                default_batch_size=128)

MODEL_SPECS: Dict[Tuple[str, str], ModelSpec] = {
    (spec.name, spec.framework): spec
    for spec in (VGG16_CAFFE, VGG16_TF, RESNET50_TF, INCEPTIONV3_TF,
                 RESNET50_CAFFE, INCEPTIONV3_PYTORCH)
}


def model_spec(name: str, framework: str) -> ModelSpec:
    try:
        return MODEL_SPECS[(name, framework)]
    except KeyError:
        raise ValueError(
            f"no calibration for model {name!r} on {framework!r}") from None
