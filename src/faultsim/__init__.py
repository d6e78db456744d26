"""Deterministic fault-line stress simulator on a 2D integer grid."""

from .engine import SimConfig, SplitMix64
from .grid import FaultMap, GridDims
from .raster import draw_circle, draw_segment, draw_vertical
from .render import RenderStyle, StressBands, render_stress_map
from .scenario import Scenario, load_scenario, save_scenario
