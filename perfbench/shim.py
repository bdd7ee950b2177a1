"""One traced CLI process: wrap compsigns' public functions, then run the CLI.

    python -X importtime perfbench/shim.py SPANS_FILE -- CLI_ARGS...

Every function in TRACED is replaced, in every compsigns module namespace
and module-level dict that bound it, by a wrapper that records a span
(name, start, end, parent span index).  The spans stay in memory and are
written to SPANS_FILE as JSON when the CLI returns; the process then exits
with the CLI's exit code and has printed exactly what the CLI printed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (span name, module, attribute); the module is where the traced object is
# looked up, so each backend kernel is traced under the name the rest of
# the package imports it by
TRACED = (
    ("cli.main", "compsigns.cli", "main"),
    ("sets.parse_spec", "compsigns.sets", "parse_spec"),
    ("backend.conv", "compsigns._backend", "conv"),
    ("backend.conv_trunc", "compsigns._backend", "conv_trunc"),
    ("backend.eval_table", "compsigns._backend", "eval_table"),
    ("backend.delta_eval_table", "compsigns._backend", "delta_eval_table"),
    ("backend.comp_poly_rows", "compsigns._backend", "comp_poly_rows"),
    ("backend.sk_rows", "compsigns._backend", "sk_rows"),
    ("backend.series_inv_int", "compsigns._backend", "series_inv_int"),
    ("backend.first_violation", "compsigns._backend", "first_violation"),
    ("poly.IntPoly.mul", "compsigns.poly", "IntPoly.__mul__"),
    ("poly.series_inverse", "compsigns.poly", "series_inverse"),
    ("poly.resultant_in_y", "compsigns.poly", "resultant_in_y"),
    ("compositions.verify_identities", "compsigns.compositions", "verify_identities"),
    ("compositions.q_series", "compsigns.compositions", "q_series"),
    ("compositions.comp_polys", "compsigns.compositions", "comp_polys"),
    ("sums.sk_direct", "compsigns.sums", "sk_direct"),
    ("sums.sk_fast", "compsigns.sums", "sk_fast"),
    ("sums.sk_via_q", "compsigns.sums", "sk_via_q"),
    ("sums.sk_via_conv", "compsigns.sums", "sk_via_conv"),
    ("sums.grid_csv", "compsigns.sums", "grid_csv"),
    ("signs.sign_word", "compsigns.signs", "sign_word"),
    ("signs.detect_period", "compsigns.signs", "detect_period"),
    ("nonperiodic.check_nonperiodic", "compsigns.nonperiodic", "check_nonperiodic"),
    ("nonperiodic.roots_numeric", "compsigns.nonperiodic", "roots_numeric"),
    ("nonperiodic.ratio_poly", "compsigns.nonperiodic", "ratio_poly"),
    ("explorer.enumerate_F", "compsigns.explorer", "enumerate_F"),
    ("explorer.enumeration_json", "compsigns.explorer", "enumeration_json"),
    ("explorer.verdicts_csv", "compsigns.explorer", "verdicts_csv"),
)


def install(spans: list) -> None:
    """Replace every traced function by a span-recording wrapper."""
    stack: list[int] = []

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
        return traced

    wrappers = {}
    for name, module, attr in TRACED:
        holder = importlib.import_module(module)
        owner, _, leaf = attr.rpartition(".")
        if owner:  # a method: patch the class itself
            holder = getattr(holder, owner)
        fn = getattr(holder, leaf)
        wrappers[id(fn)] = (fn, wrap(name, fn))
        setattr(holder, leaf, wrappers[id(fn)][1])

    def swap(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for modname, mod in list(sys.modules.items()):
        if modname != "compsigns" and not modname.startswith("compsigns."):
            continue
        for key, value in list(vars(mod).items()):
            if isinstance(value, dict):
                for k in list(value):
                    value[k] = swap(value[k])
            elif swap(value) is not value:
                setattr(mod, key, swap(value))


def main() -> int:
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: shim.py SPANS_FILE -- CLI_ARGS...")
    import compsigns.cli

    spans: list = []
    install(spans)
    try:
        return compsigns.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main())
