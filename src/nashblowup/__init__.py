"""Combinatorial models of Nash blow-ups of cominuscule Schubert varieties.

The library computes, for a Schubert variety indexed by a minimal coset
representative w in a cominuscule flag variety G/P:

* the parabolic Q attached to the Nash blow-up and its torus-fixed points,
* fibers of the blow-up over fixed points, hence its smooth locus,
* Peterson translation graphs of tangent-space limits,
* type-A specializations: coessential sets, partitions, small resolutions
  of covexillary Schubert varieties, and fiber-product fixed-point counts.

Everything runs over exact integer arithmetic in simple-root coordinates.
"""

from .rootsystem import (
    CartanType,
    InvariantViolation,
    Root,
    RootSystem,
    build,
    dynkin_diagram,
    format_root,
    root_system,
)
from .weyl import (
    ParabolicSubset,
    WeylElement,
    bruhat_leq,
    format_word,
    from_word,
    identity,
    interval_min_reps,
    inverse,
    left_inversions,
    longest_element,
    lower_interval,
    max_coset_rep,
    min_coset_rep,
    multiply,
    parabolic,
    reduced_word,
    reflection_from_root,
    simple_reflection,
)

__version__ = "0.1.0"
