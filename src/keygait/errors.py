"""Exception types shared across the package."""

from __future__ import annotations


class KeygaitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(KeygaitError):
    """A raw event file is malformed."""


class PairingError(KeygaitError):
    """A press/release stream cannot be paired into keystrokes."""


class AlignmentError(KeygaitError):
    """Sequences cannot be aligned (empty input, no target)."""


class FeatureError(KeygaitError):
    """A sequence cannot be turned into a feature vector."""


class TrainingError(KeygaitError):
    """Detector training produced an infinite or NaN loss, or invalid state."""


class ScoreNormError(KeygaitError):
    """Score normalization preconditions violated."""


class EvaluationError(KeygaitError):
    """ROC/EER computation or pipeline preconditions violated."""


class ResolutionError(KeygaitError):
    """Clock resolution cannot be estimated from the data."""


class DatasetError(KeygaitError):
    """A dataset directory or manifest is unreadable or inconsistent."""
