"""Runtime record of one training job inside the platform."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.helper import ControllerState
from repro.core.learner import LearnerState
from repro.core.manifest import JobManifest
from repro.core.statuses import StatusHistory
from repro.nfs.volume import NFSVolume

@dataclass
class TrainingJob:
    """All platform-side state for one submitted job."""

    job_id: str
    manifest: JobManifest
    submitted_at: float
    status: StatusHistory = field(default_factory=StatusHistory)
    #: Kubernetes object names owned by this job, derived from job_id.
    statefulset_name: str = field(init=False)
    ps_set_name: str = field(init=False)
    helper_name: str = field(init=False)
    netpol_name: str = field(init=False)
    pvc_name: str = field(init=False)
    guardian_job_name: str = field(init=False)
    #: Runtime handles.
    volume: Optional[NFSVolume] = None
    learner_states: List[LearnerState] = field(default_factory=list)
    controller_state: ControllerState = field(
        default_factory=ControllerState)
    guardian_attempts: int = 0
    deploy_completed_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Set when admission control preempts the job.
    preempted: bool = False

    def __post_init__(self) -> None:
        self.statefulset_name = f"{self.job_id}-learner"
        self.ps_set_name = f"{self.job_id}-ps"
        self.helper_name = f"{self.job_id}-helper"
        self.netpol_name = f"{self.job_id}-netpol"
        self.pvc_name = f"{self.job_id}-nfs"
        self.guardian_job_name = f"{self.job_id}-guardian"
        if not self.learner_states:
            self.learner_states = [LearnerState(i)
                                   for i in range(self.manifest.learners)]

    @property
    def runtime_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at
