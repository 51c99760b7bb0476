"""Exact enumeration and verification of tilting modules over type A/D quivers."""

from .models import (
    AInterval,
    DIndec,
    all_orientations,
    ar_translate,
    compatible,
    ext_vanish_pair,
    model_dim,
)
from .quiver import (
    Quiver,
    canonical_form,
    classify_tree,
    d_quiver,
    delete_vertex,
    path_quiver,
    quiver_from_json,
    quiver_to_json,
    reflect,
    sink_reflection_sequence,
    sinks_sources,
)
from .rep import (
    Indec,
    Rep,
    build_model_rep,
    euler_form,
    ext_dim,
    extend,
    hom_dim,
    indecomposables,
    positive_roots,
    reflection_minus,
    reflection_plus,
    restrict,
    simple_rep,
    zero_rep,
)
from .tilting import (
    ExtTable,
    TiltingQuiver,
    closed_form_counts,
    degree_stats,
    enumerate_tilting,
    ext_table,
    hasse_check,
    is_tilting,
    leq,
    module_dim,
    tilting_quiver,
    tilting_quiver_dot,
    tilting_quiver_json,
)

__version__ = "0.1.0"
