"""Autoware-like workload pipelines, profiling and sub-sampling."""

from ..engine.execution import ExecutionConfig
from .autoware import (
    EuclideanClusterPipeline,
    FrameMeasurement,
    KernelReport,
    PhaseBudget,
    PipelineConfig,
)
from .localization import (
    LocalizationConfig,
    NDTLocalizationPipeline,
    NDTPhaseBudget,
    RegistrationMeasurement,
)
from .pipeline import (
    FrameRecord,
    LocalizationReport,
    PipelineRunner,
    PipelineRunnerConfig,
    PipelineRunResult,
)
from .profiles import ExecutionShare, profile_euclidean_cluster, profile_ndt_matching
from .subsampling import SubsamplingErrors, evaluate_subsampling, measure_sequence

__all__ = [
    "ExecutionConfig",
    "FrameRecord",
    "LocalizationReport",
    "PipelineRunner",
    "PipelineRunnerConfig",
    "PipelineRunResult",
    "EuclideanClusterPipeline",
    "FrameMeasurement",
    "KernelReport",
    "PhaseBudget",
    "PipelineConfig",
    "LocalizationConfig",
    "NDTLocalizationPipeline",
    "NDTPhaseBudget",
    "RegistrationMeasurement",
    "ExecutionShare",
    "profile_euclidean_cluster",
    "profile_ndt_matching",
    "SubsamplingErrors",
    "evaluate_subsampling",
    "measure_sequence",
]
