"""Driver gaze-region classification from landmarks and eye crops.

Pipeline: pupil detection on the eye crop (CDF thresholding, morphology,
per-image parameter search), calibration-free feature normalization, a
deterministic from-scratch random forest, confidence-based decision pruning,
and an owl/lizard gaze-strategy analysis harness over synthetic driver
populations.
"""

from .core import (
    Decision,
    FrameRecord,
    GazekitError,
    GazeRegion,
    GrayImage,
    Landmarks,
    REGIONS,
    index_to_region,
    region_index,
)
from .features import FeatureMode, FeatureVector, build_feature
from .forest import ForestConfig, ForestModel, predict_proba
from .pipeline import AttritionLedger, PipelineConfig, classify_frame, decision_rates
from .pupil import ParamGrid, PupilResult, PupilStatus, detect_pupil

__version__ = "0.1.0"

__all__ = [
    "Decision",
    "FrameRecord",
    "GazekitError",
    "GazeRegion",
    "GrayImage",
    "Landmarks",
    "REGIONS",
    "index_to_region",
    "region_index",
    "FeatureMode",
    "FeatureVector",
    "build_feature",
    "ForestConfig",
    "ForestModel",
    "predict_proba",
    "AttritionLedger",
    "PipelineConfig",
    "classify_frame",
    "decision_rates",
    "ParamGrid",
    "PupilResult",
    "PupilStatus",
    "detect_pupil",
    "__version__",
]
