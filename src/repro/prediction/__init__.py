"""Idle/active-period predictors (paper refs [1], [2], [3])."""

from .base import Predictor, ConstantPredictor, LastValuePredictor, PerfectPredictor
from .exponential import ExponentialAveragePredictor
from .regression import RegressionPredictor
from .learning_tree import LearningTreePredictor

__all__ = [
    "Predictor",
    "ConstantPredictor",
    "LastValuePredictor",
    "PerfectPredictor",
    "ExponentialAveragePredictor",
    "RegressionPredictor",
    "LearningTreePredictor",
]
