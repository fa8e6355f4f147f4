"""Green coordinates, analytic trees and generalized rectifications
for quadratic Julia sets."""

from .errors import (AngleUnresolved, CombinatoricsMismatch, ConfigError,
                     Connected, CriticalLevel, GreenrayError, InsideK,
                     InvalidInput, NonFinite, NotAdmissible, OnSkeleton,
                     OverlappingWindows, RayCrash, RootHasInfiniteModulus,
                     RootNode, SchemaError, TargetRayCrash)
from .potential import (GreenCoordinate, GreenSystem, critical_potential,
                        escape_green, invert_green_coords, julia_samples,
                        log_bottcher, precritical_points, skeleton,
                        trace_equipotential, trace_ray)
from .rectify import (ContinuumMap, TransportMap, boundary_derivative_probe,
                      build_quadratic_pair, convergence_study,
                      quasihyperbolic_displacement, transport_exterior,
                      transport_with_residuals, transported_boundary_distance)
from .structures import (CircleCDF, PotentialHomeo, VirtualStructure,
                         admissible, collapse, deserialize_structure,
                         lipschitz_approx_d, lipschitz_approx_k, measure_of,
                         mod_xi, serialize_structure)
from .tree import (AnalyticTree, TreeNode, abstract_binary_tree,
                   build_quadratic_tree, deserialize_tree, node_modulus,
                   serialize_tree, thinness_report)

__version__ = "0.1.0"

__all__ = [
    "GreenCoordinate", "GreenSystem",
    "critical_potential", "escape_green", "invert_green_coords",
    "julia_samples", "log_bottcher", "precritical_points", "skeleton",
    "trace_equipotential", "trace_ray",
    "AnalyticTree", "TreeNode", "abstract_binary_tree",
    "build_quadratic_tree", "deserialize_tree", "node_modulus",
    "serialize_tree", "thinness_report",
    "CircleCDF", "PotentialHomeo", "VirtualStructure", "admissible",
    "collapse", "deserialize_structure", "lipschitz_approx_d",
    "lipschitz_approx_k", "measure_of", "mod_xi", "serialize_structure",
    "ContinuumMap", "TransportMap", "boundary_derivative_probe",
    "build_quadratic_pair", "convergence_study",
    "quasihyperbolic_displacement", "transport_exterior",
    "transport_with_residuals", "transported_boundary_distance",
    "GreenrayError", "InvalidInput", "NonFinite", "InsideK", "OnSkeleton",
    "RayCrash", "CriticalLevel", "Connected", "AngleUnresolved",
    "RootHasInfiniteModulus", "RootNode", "SchemaError",
    "OverlappingWindows", "NotAdmissible", "TargetRayCrash",
    "CombinatoricsMismatch", "ConfigError",
]
