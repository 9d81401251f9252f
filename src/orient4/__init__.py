"""Orientation numbers of diameter-4 tree vertex-multiplications.

Decide whether a multiplied diameter-4 tree admits a strong orientation of
diameter 4 (orientation number 4) or only 5, construct an explicit
diameter-4 orientation whenever one exists, and cross-check everything at
desk scale with an exhaustive oracle.  A squashed-order Sperner toolkit
(shadows, cascade bounds, deficiency functions) backs the thresholds.
"""

from .build import (ConstructionResult, ReducedSpec, SetSchedule,
                    build_base_orientation, construct_optimal, make_schedule,
                    reduce)
from .classify import Classification, classify, half_binom, select_case
from .digraph import (UNREACHABLE, Orientation, diameter, eccentricities,
                      extend_orientation, from_arcs, from_edge_list,
                      is_strong, to_dot, to_edge_list)
from .errors import ConstructionError, Refusal, UsageError
from .oracle import (OracleResult, bipartite_orientation_number,
                     orientation_number)
from .sperner import (first_m, kappa, kappa_star, last_m, level_size,
                      members, shade, shadow, shadow_size_kkt, squashed_level)
from .tree import (BranchSpec, NeighborPartition, TreeSpec, load_spec,
                   multiplied_edges, partition, spec_from_dict, spec_to_dict,
                   validate, vertex_names)

__version__ = "0.1.0"
