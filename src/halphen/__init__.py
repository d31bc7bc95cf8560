"""Exact-arithmetic toolkit for Hilbert functions of homogeneous ideals
and the degree/genus classification of smooth curves in P^3."""

__version__ = "0.1.0"
