"""Desk-scale laboratory for tight cycles, fractional matchings, and density
reductions in 3-uniform hypergraphs."""

from .errors import (
    GenerationError,
    InvalidArgumentError,
    InvariantViolation,
    ParseError,
    PreconditionError,
    SizeLimitError,
    TclError,
)
from .hypergraph import (
    Graph,
    Hypergraph3,
    complete_3graph,
    complete_graph,
    read_graph,
    read_hypergraph,
    write_graph,
    write_hypergraph,
)
from .tight import (
    TightComponentLabeling,
    component_star,
    tight_components,
)
from .matching import (
    GraphMatching,
    GraphMeetReport,
    connected_components,
    erdos_gallai_threshold,
    graphmeet_verify,
    largest_component,
    max_matching,
)
from .fractional import (
    FarkasCertificate,
    FractionalMatching,
    FracmatchResult,
    tight_perfect_fractional_matching,
    max_fractional_matching,
    perfect_or_certificate,
)
from .slices import (
    ClusterIndex,
    IrregularityWitness,
    ReducedGraph,
    WeakSlice,
    build_reduced_graph,
    build_weak_slice,
    good_clusters,
    irregularity_witness,
    reduced_degree_check,
    relative_density,
    sub_polyad_density,
)
from .cycles import (
    CycleSearchResult,
    TightCycle,
    brute_force_longest_cycle,
    longest_tight_cycle,
    matching_guided_cycle,
    validate_cycle,
)
from .generators import (
    ExtremalInstance,
    extremal,
    extremal_from_eta,
    min_degree_bound,
    random_3graph,
    random_min_degree_3graph,
)
from .pipeline import PipelineReport, run_pipeline

__version__ = "0.1.0"
