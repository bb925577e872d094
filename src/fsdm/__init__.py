"""Factorized score-based diffusion for categorical stage-sequence
inference from arbitrary sensor subsets, with exact enumeration oracles."""

__version__ = "0.1.0"

__all__ = ["__version__"]
