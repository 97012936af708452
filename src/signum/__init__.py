"""Analysis toolkit for sign pattern matrices and the unique-inertia question.

The package is layered bottom-up: patterns (representation and transforms),
graphs (signed digraph and undirected graph structure), cycles (directed
cycle combinatorics), charpoly (cycle sums and sign variations), spectra
(sampling, censuses, witness matrices), verdict (the decision-rule
battery), and fixtures (a built-in catalog of benchmark patterns with
recorded expectations).
"""

from .charpoly import (
    CharPoly,
    DetSign,
    EkSign,
    Variations,
    char_poly,
    descartes,
    ek_sign,
    sign_det,
)
from .cycles import (
    CompositeCycle,
    Matching,
    PatternAnalysis,
    SignSet,
    SimpleCycle,
    cover_extension_exists,
    directed_cycle_from_vertices,
    gamma_matchings_from_odd_run,
    max_composite_cover,
    max_composite_length,
    max_composite_sign_set,
)
from .errors import SignumError
from .graphs import (
    CycleStructureReport,
    GraphShape,
    MaximalSignedRun,
    ShapeKind,
    SignedDigraph,
    SignedGraph,
    build_digraph,
    build_graph,
    build_graphs,
    classify_shape,
    cycle_structure,
    digraph_to_dot,
    graph_to_dot,
    maximal_signed_runs,
    path_edge_signs,
)
from .patterns import (
    AmbSign,
    EquivalenceOp,
    Negation,
    PatternFlags,
    PermutationSimilarity,
    SignPattern,
    SignatureSimilarity,
    Transposition,
    apply_equivalence,
    find_principal_subpattern,
    p_minus,
    parse_pattern,
    validate,
)
from .spectra import (
    Census,
    SampleConfig,
    SpectralProfile,
    WitnessPair,
    WitnessSpec,
    build_witness,
    census,
    find_witness_pair,
    ladder_spec,
    matching_parts,
    sample,
    spectral_profile,
    stabilize_epsilon,
)
from .verdict import Conclusion, Overall, RuleFinding, Verdict, analyze, explain, verdict_to_json

__version__ = "0.1.0"
