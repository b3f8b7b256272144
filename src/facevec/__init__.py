"""Face vectors of flag complexes.

Clique vectors of graphs, Kruskal-Katona and Frankl-Füredi-Kalai canonical
representations with their shadow bounds, (colored) rev-lex complexes with
prescribed face counts, and the constructive transformation of any flag
complex into a balanced complex with the identical face vector — plus the
brute-force harness that re-verifies all of it at small scale.
"""
from .combinat import (
    CanonicalRep,
    ffk_bound,
    ffk_canonical,
    kk_canonical,
    kk_shadow_bound,
    turan_binom,
)
from .complexes import (
    ColoredComplex,
    Complex,
    check_coloring,
    face_vector,
)
from .construct import (
    BalancedReport,
    ConstructionTrace,
    TraceStep,
    construct_balanced,
    construct_from_vector,
    construct_pair,
)
from .errors import GuardExceeded, InputFormatError, InvariantViolation
from .graphs import (
    Graph,
    clique_vector,
    graph6_encode,
    parse_graph,
)
from .revlex import (
    LevelSpec,
    first_ksets,
    first_permissible_ksets,
    revlex_faces,
    revlex_key,
    revlex_tails,
)
from .verify import (
    GraphRecord,
    VerificationReport,
    exhaustive_verify,
    oracle_face_count,
    random_verify,
    verify_graph,
)

__version__ = "0.1.0"

__all__ = [
    "BalancedReport",
    "CanonicalRep",
    "ColoredComplex",
    "Complex",
    "ConstructionTrace",
    "Graph",
    "GraphRecord",
    "GuardExceeded",
    "InputFormatError",
    "InvariantViolation",
    "LevelSpec",
    "TraceStep",
    "VerificationReport",
    "check_coloring",
    "clique_vector",
    "construct_balanced",
    "construct_from_vector",
    "construct_pair",
    "exhaustive_verify",
    "face_vector",
    "ffk_bound",
    "ffk_canonical",
    "first_ksets",
    "first_permissible_ksets",
    "graph6_encode",
    "kk_canonical",
    "kk_shadow_bound",
    "oracle_face_count",
    "parse_graph",
    "random_verify",
    "revlex_faces",
    "revlex_key",
    "revlex_tails",
    "turan_binom",
    "verify_graph",
]
