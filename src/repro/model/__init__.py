"""Analytic performance model (paper-scale sweeps without event simulation)."""

from .plan import RankPlan, compile_rank_plan
from .predict import Prediction, predict_pattern, predict_plans
from .twophase import predict_twophase

__all__ = [
    "RankPlan",
    "compile_rank_plan",
    "Prediction",
    "predict_pattern",
    "predict_plans",
    "predict_twophase",
]
