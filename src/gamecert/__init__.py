"""Certification engine for a two-player box-deletion game on R^n.

Computes winning budget parameters for explicit self-affine families
(rectangular cut-out sets, rectangular corner-digit sets), certifies
non-emptiness, Hausdorff-dimension lower bounds, pattern containment and
intersection bounds, and exposes the underlying lattice/projection/counting
machinery as exhaustively testable oracles.
"""
