"""Fraisse sequences over truncated ultrametric ball trees.

Builds sequences of finite discrete spaces over a fixed ball tree, embeds
the tree generically into the limit, and runs the lifting, homeomorphism
extension and retraction algorithms with machine-checkable certificates.
"""

from .balltree import (
    BallTree,
    NowhereDenseFailure,
    NowhereDenseWitness,
    ball_quotients,
    factoring_level,
    from_sequence,
    is_uniformly_nowhere_dense,
    u_metric,
    validate_witness,
)
from .engine import (
    BuildResult,
    FraisseTask,
    PaddedObject,
    PaddingSchedule,
    build_fraisse,
    dominate_arrow,
    make_padded_object,
    verify_fraisse,
)
from .errors import DepthError, InputError, SchemaError
from .fixtures import binary_tree, k4
from .generic import (
    GenericPresentation,
    LiftResult,
    PartialHomeo,
    brute_force_lift_oracle,
    embed_generic,
    extend_homeo,
    lift_through_generic,
    presentation_from_subset,
    retract_onto,
    retraction_table,
)
from .sequences import (
    InverseSequence,
    Report,
    SequenceArrow,
    SlicedSequence,
    apply_sequence_arrow,
    check_coherent,
)
from .slices import SliceArrow, SliceObject, amalgamate_slice
from .spaces import FiniteSpace, PointMap, Surjection, compose, identity, pullback
