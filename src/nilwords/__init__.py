"""Word calculus in the free 3-step nilpotent group on two generators.

The package evaluates words with real exponents through the closed group
law, studies the induced one-parameter rewriting maps and their planar
dynamics, tests membership in the admissible planar region, and searches
for short map sequences reaching given targets.  The headline experiment:
points approaching (1/3, 1/3) stay reachable only by words with more and
more letters, even though every such word has length exactly 2.
"""

from .scalar import DIAGONAL_FIXED_POINT, Mode, ModeMismatchError, Scalar
from .words import (
    Generator,
    Letter,
    RWord,
    SigmaValidationError,
    SigmaWord,
    WordParseError,
    balanced_word,
    coarse_length,
    format_word,
    length,
    normalize,
    parse_word,
    sigma_to_rword,
    validate_sigma,
    word_map_a,
    word_map_b,
)
from .lie_core import (
    AlgebraVector,
    GroupElement,
    abelianization_lower_bound,
    bracket,
    evaluate_word,
    inverse,
    multiply,
)
from .dynamics import (
    UVWPoint,
    UnitMassError,
    XYPoint,
    eval_uvw,
    eval_xy,
    extract_uvw,
    map_a_uvw,
    map_a_xy,
    map_b_uvw,
    map_b_xy,
    project,
)
from .region import (
    EpsilonPolicy,
    Membership,
    RegionVerdict,
    boundary_sample,
    membership,
    render_region,
)
from .search import (
    DEFAULT_CONFIG,
    MapSequence,
    SearchConfig,
    SearchReport,
    Seed,
    StepKind,
    SynthesisResult,
    apply_sequence,
    coarse_length_profile,
    diagonal_gap,
    nearest_reachable,
    seq_to_word,
    synthesize_word,
)
from .verify import run_suite

__version__ = "0.1.0"
