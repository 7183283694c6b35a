"""Virtual network embedding toolkit.

Extraction-order analysis of request graphs, the multi-commodity flow
relaxation and the decomposable relaxation, convex decomposition of LP
solutions into valid mappings, and randomized rounding with tri-criteria
guarantees.
"""

from ._version import __version__
from .decomposition import (
    ConvexDecomposition,
    DecompositionEntry,
    DecompositionError,
    DecompositionStuckError,
    MappingConflictError,
    decompose_novel,
    find_connectivity_path,
    verify_decomposition,
)
from .extraction import (
    Digraph,
    EdgeBag,
    ExtractionError,
    ExtractionOrder,
    LabeledExtractionOrder,
    build_degree_order,
    build_extraction_order,
    flow_labeling,
    generate_half_wheel,
    generate_vc_gadget,
    half_wheel_center_order,
    is_cactus,
    label_order,
    min_width_order_search,
    orientation_from_flags,
)
from .formulations import (
    BudgetExceededError,
    NovelState,
    RequestColumns,
    build_mcf,
    build_novel,
    count_novel_variables,
    embed_mapping,
)
from .instances import (
    Instance,
    InstanceFormatError,
    dump_instance,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    loads_instance,
)
from .lpmodel import LPModel, LPSolution, max_violation, solve, write_lp
from .model import (
    Request,
    SubstrateGraph,
    ValidMapping,
    ValidationReport,
    check_valid_mapping,
    collection_feasible,
    compute_allocations,
    edge_resource,
    mapping_cost,
    node_resource,
    validate_instance,
)
from .oracle import (
    EnumerativeSolution,
    MappingEnumeration,
    enumerate_valid_mappings,
    solve_enumerative,
)
from .pipeline import (
    PipelineConfig,
    PipelineError,
    Relaxation,
    RunReport,
    relax,
    round_relaxation,
    run_pipeline,
)
from .rounding import (
    GuaranteeError,
    RoundedSolution,
    RoundingBounds,
    bounds_from_parameters,
    check_tri_criteria,
    compute_bounds,
    preprocess_profit,
    prune_costly_mappings,
    round_cost,
    round_profit,
)
from .scenarios import scenario_instance

__all__ = [name for name in dir() if not name.startswith("_")]
