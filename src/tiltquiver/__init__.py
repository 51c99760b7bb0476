"""Exact enumeration and verification of tilting modules over type A/D quivers."""

from .models import all_orientations
from .quiver import d_quiver, path_quiver, reflect
from .tilting import (
    closed_form_counts,
    degree_stats,
    enumerate_tilting,
    ext_table,
    hasse_check,
    tilting_quiver,
)

__version__ = "0.1.0"
