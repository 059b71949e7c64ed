"""Chip-firing on pleasantly weighted multigraphs: Jacobians, balanced
Jacobians, sub-weighted spanning trees, tree tours, and component groups
of special fibers."""

from .errors import (ChipfireError, GraphInputError, InternalError,
                     PreconditionError)
from .graphs import (Edge, HatGraph, SplitPlan, ValidationReport,
                     VertexSplitMap, WeightedMultigraph, add_leaf,
                     component_genera, expand_hat, is_pleasant,
                     shrink_vertex_weight, split_edge, split_vertex,
                     validate, vertex_gcd, weighted_genus)
from .divisors import (Divisor, EquivalenceCertificate, LaplacianSystem,
                       UnbalancingClass, chip_fire, degree, equivalent,
                       is_balanced, laplacian, unbalancing_class)
from .trees import enumerate_forests, enumerate_trees, is_maximal_forest
from .picard import (AbelianGroupStructure, count_pic0, count_picb0,
                     pic0_structure, picb0_structure)
from .bernardi import (SubweightedTree, orientation_divisor, reduce,
                       torsor_act, tour_forest, tree_divisor)
from .fibers import (SpecialFiberDescription, balanced_representatives,
                     component_group, dual_graph, phi_note)
from .family import pleasant_family
from .selfcheck import run_selfcheck

__all__ = [
    "ChipfireError", "GraphInputError", "InternalError", "PreconditionError",
    "Edge", "HatGraph", "SplitPlan", "ValidationReport", "VertexSplitMap",
    "WeightedMultigraph", "add_leaf", "component_genera", "expand_hat",
    "is_pleasant", "shrink_vertex_weight", "split_edge", "split_vertex",
    "validate", "vertex_gcd", "weighted_genus",
    "Divisor", "EquivalenceCertificate", "LaplacianSystem",
    "UnbalancingClass", "chip_fire", "degree", "equivalent", "is_balanced",
    "laplacian", "unbalancing_class",
    "enumerate_forests", "enumerate_trees", "is_maximal_forest",
    "AbelianGroupStructure", "count_pic0", "count_picb0", "pic0_structure",
    "picb0_structure",
    "SubweightedTree", "orientation_divisor", "reduce", "torsor_act",
    "tour_forest", "tree_divisor",
    "SpecialFiberDescription", "balanced_representatives",
    "component_group", "dual_graph", "phi_note",
    "pleasant_family", "run_selfcheck",
]
