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

__version__ = "0.1.0"
