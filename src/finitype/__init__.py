"""Finite-type self-similar measures: exact transition graphs and certified
local-dimension bounds."""

__version__ = "0.1.0"

from .exactfield import NumberField, FieldElement, compare, to_decimal
from .ifsmodel import Ifs, Model, validate, uniform_probabilities, \
    binomial_convolution_probabilities, rescale
from .netgraph import CharacteristicVector, TransitionEdge, TransitionGraph, \
    children, build_graph, export_dot
from .loopclasses import LoopClass, Positivity, maximal_loop_classes, \
    essential_class, positivity_certificate, classify_all
from .dimcalc import spectral_radius, periodic_dimension, enumerate_cycles, \
    norm_bounds, assemble_report, DimensionReport, dim_at_zero
from .closedforms import CantorParams, bhm_min_formula, bhm_max_formula, \
    isolated_point_bound
from .oracle import brute_level, check_graph_against_oracle

__all__ = [
    "NumberField", "FieldElement", "compare", "to_decimal",
    "Ifs", "Model", "validate", "uniform_probabilities",
    "binomial_convolution_probabilities", "rescale",
    "CharacteristicVector", "TransitionEdge", "TransitionGraph",
    "children", "build_graph", "export_dot",
    "LoopClass", "Positivity", "maximal_loop_classes", "essential_class",
    "positivity_certificate", "classify_all",
    "spectral_radius", "periodic_dimension", "enumerate_cycles",
    "norm_bounds", "assemble_report", "DimensionReport", "dim_at_zero",
    "CantorParams", "bhm_min_formula", "bhm_max_formula", "isolated_point_bound",
    "brute_level", "check_graph_against_oracle",
]
