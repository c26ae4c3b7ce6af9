"""Experiment harness: per-figure drivers, presets, and reporting."""

from .artificial import figure9, figure10, figure11, figure12
from .flashio import figure15
from .harness import DataPoint, des_point, model_point
from .presets import PAPER, SCALED, SCALES, SMOKE, Scale
from .report import Check, FigureResult, points_to_csv, series_table
from .tiledvis import figure17

__all__ = [
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure15",
    "figure17",
    "DataPoint",
    "des_point",
    "model_point",
    "Scale",
    "SCALES",
    "PAPER",
    "SCALED",
    "SMOKE",
    "Check",
    "FigureResult",
    "series_table",
    "points_to_csv",
]
