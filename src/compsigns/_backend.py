"""Kernel backend selection.

The compiled extension compsigns._kernels is used when it imports;
otherwise the pure-Python twin is.  Both expose the same functions with
identical exact-integer semantics.
"""

from __future__ import annotations

try:
    from . import _kernels as _mod  # type: ignore[attr-defined]

    BACKEND = "cython"
except ImportError:
    from . import _kernels_py as _mod

    BACKEND = "python"

conv = _mod.conv
conv_trunc = _mod.conv_trunc
comp_poly_rows = _mod.comp_poly_rows
eval_table = _mod.eval_table
delta_eval_table = _mod.delta_eval_table
sk_rows = _mod.sk_rows
series_inv_int = _mod.series_inv_int
first_violation = _mod.first_violation

__all__ = [
    "BACKEND",
    "conv",
    "conv_trunc",
    "comp_poly_rows",
    "eval_table",
    "delta_eval_table",
    "sk_rows",
    "series_inv_int",
    "first_violation",
]
