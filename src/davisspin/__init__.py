"""Exact arithmetic for the symmetry group of the Davis hyperbolic 4-manifold:
the quaternionic double cover of its isometries, the binary icosahedral group,
the order-28800 symmetry group with its character table, and the spin-number
index data of the manifold's spin structures."""

__version__ = "0.1.0"

__all__ = ["exactfield", "quatmat", "icosa", "ghat", "reptheory", "spinindex", "cli"]
