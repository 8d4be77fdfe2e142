"""Exception hierarchy for the audioanom pipeline.

The class alone decides the CLI exit code: a ConfigError (bad parameters, a
feature table that does not fit the model) exits 2, any other error exits 1.
"""


class AudioAnomError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(AudioAnomError):
    """A refused setting: a bad config value or an out-of-range argument."""


# --- synthgen ---

class MalformedManifest(AudioAnomError):
    """Manifest CSV that is not UTF-8 or not CSV, is empty, has a bad
    header or a row that is not clip_id,path,label, or has a clip id or
    label holding a line break, a clip id holding a path separator or NUL,
    a clip id that repeats, or a path holding NUL."""


# --- audio_io ---

class MalformedContainer(AudioAnomError):
    """File is not a well-formed RIFF/WAVE container."""


class UnsupportedEncoding(AudioAnomError):
    """WAV codec / bit depth outside PCM16 and float32."""


class EmptyAudio(AudioAnomError):
    """Audio stream contains zero samples."""


class IoFailure(AudioAnomError):
    """An OSError while files.py opened, read or wrote a file."""


# --- dsp ---

class NFftNotPowerOfTwo(ConfigError):
    """Transform size must be a power of two."""


class SignalTooShort(AudioAnomError):
    """Signal shorter than one analysis frame."""


# --- preprocess ---

class TooShortForProfile(AudioAnomError):
    """Leading noise window does not contain one full frame."""


class LengthMismatch(AudioAnomError):
    """Paired sequences have different lengths."""


# --- features ---

class DegenerateFilter(ConfigError):
    """Two mel filter centers share an FFT bin, or a filter weighs none."""


class FrameTooShort(AudioAnomError):
    """Frame too short for the requested statistic."""


class NonFiniteFeature(AudioAnomError):
    """A feature value is NaN or infinite."""


class MalformedFeatureFile(AudioAnomError):
    """Feature CSV that is not UTF-8 or not CSV, is empty, has a bad
    header, a row of the wrong length or a value that is not a number."""


# --- models ---

class EmptyDataset(AudioAnomError):
    """Training set contains no instances."""


class NotBinary(ConfigError):
    """SVM training requires exactly two classes."""


class EmptyClass(AudioAnomError):
    """A class has no training instances."""


class SchemaMismatch(ConfigError):
    """Feature vector does not conform to the model's schema."""


class MalformedModel(AudioAnomError):
    """Model JSON that is not UTF-8 JSON, of an unknown kind, or whose
    document, trees or ensemble members lack a key or hold a value that
    fails the key's check in `models._SCHEMA` (format_version 1, names,
    sizes, ranges, an ensemble member's names), holding a tree node that is
    neither a leaf nor a well-formed split, or an ensemble whose weights
    have no positive, finite sum."""


# --- evaluate ---

class ClassTooSmall(AudioAnomError):
    """A class has too few instances for the requested split."""


class LabelOutOfRange(AudioAnomError):
    """Label index outside [0, K), or a label that names no class."""


class EmptyMatrix(AudioAnomError):
    """Confusion matrix holds zero instances."""


class MalformedReport(AudioAnomError):
    """Report JSON that is not UTF-8 JSON, or that lacks a key of the v1
    report or holds a value of the wrong type there, such as an accuracy
    that is not a number."""
