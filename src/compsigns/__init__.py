"""Exact-arithmetic toolkit for composition polynomials and the sign
behaviour of their alternating weighted part-count sums."""

from ._backend import BACKEND

__version__ = "0.1.0"


class InternalError(RuntimeError):
    """A broken internal invariant: a bug in compsigns, never bad input
    and never a mathematical finding.  The CLI exits 4 on it."""


__all__ = ["BACKEND", "InternalError", "__version__"]
