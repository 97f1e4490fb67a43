"""Numerical laboratory for the 3D NLS with a planar harmonic trap.

Computes ground states of

    -Delta u + (x1^2 + x2^2) u = lambda u + |u|^{p-2} u,   lambda < 2,

traces the frequency -> mass branch, classifies orbital stability by the
slope criterion, and verifies both asymptotic regimes (free soliton as
lambda -> -infinity, dimension reduction as lambda -> 2) against
independently solved limit problems.
"""

__version__ = "0.1.0"
