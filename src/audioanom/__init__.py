"""Audio anomaly detection pipeline: noise reduction, feature extraction,
classical classifiers with soft-voting ensemble, and an evaluation harness.
"""

from .audio_io import AudioBuffer, read_wav, resample_linear, write_wav
from .config import PipelineConfig
from .features import FeatureSet, FeatureVector

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "FeatureSet",
    "FeatureVector",
    "PipelineConfig",
    "read_wav",
    "resample_linear",
    "write_wav",
    "__version__",
]
