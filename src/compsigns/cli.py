"""Command-line front end.

Every capability is exposed through one subcommand with reproducible,
machine-readable output: identical command and inputs give byte-identical
primary output.  Exit codes: 0 success/pass, 1 property violated (a
counterexample is emitted), 2 inconclusive, 3 input refused (by the
parser, by a ``SpecError``: a bad set or polynomial spec or a value out
of range, or by an ``--out`` path that cannot be written), 4 anything
else: a bug, never a verdict, reported on stderr alone.  A broken
invariant (routes that disagree under ``sk --route all``, a non-integer
value from an exact division) prints its message; any other exception,
``ValueError`` included, prints its traceback.  A stdout closed before
the output is written (``| head``) ends the run quietly with 141, the
code a shell reports for SIGPIPE.
A process started as ``compsigns`` or ``python -m compsigns.cli`` ends
through ``run``: stdout and stderr are flushed, then the process leaves
with ``os._exit`` and skips interpreter teardown, so ``atexit`` handlers
never run.  ``main`` itself returns its exit code, for in-process callers.

Output protocol: a handler returns its exit code and a list of
``(filename, body)`` outputs, where a body is either the text itself or a
callable ``body(write)`` that writes the text in pieces, so that a large
output is never held whole.  ``main`` prints every output to stdout in
order.  With ``--out DIR`` it creates DIR before the first byte is
printed and tees each output into its file there while it keeps a running
sha256 digest and byte count; a ``run_manifest.json`` then records the
command line, parameters, those digests and counts, tool version and
wall-clock time (the manifest is metadata; the determinism promise covers
the primary files).  Outputs are emitted under the same exit-code rules
as the handler runs: a file that cannot be written exits 3, any other
failure while emitting exits 4.

``nonperiodic`` runs at a fixed working precision of 256 bits, with every
tolerance and budget fixed; ``--exact`` is its one setting.
``--precision`` and ``--config`` exit 3 as unrecognised arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING

from . import InternalError, __version__
from .sets import DEFAULT_HORIZON, SpecError, parse_spec
from .sums import ROUTES

# beyond sets and sums (whose ROUTES name the --route choices), each handler
# imports the capability modules it runs, and stdlib modules that serve one
# branch load in that branch, so that a run pays at start-up only for its
# own subcommand
if TYPE_CHECKING:
    from pathlib import Path

    from .sets import SetSpec

SCHEMA = "compsigns/1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants 3
    def error(self, message):
        raise _UsageError(message)

    # argparse swallows a failed write of --help or --version; on an
    # unbuffered stdout that write was the last chance to see the closed
    # pipe, so let it fail as any other write does
    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def _spec(text: str, n: int) -> SetSpec:
    """Parse a set for a run up to n.  No query is limited by a horizon;
    the default one is widened to n because thm34 and thm36 print it
    (``@H``), and an explicit @H suffix still wins.  A negative n, the -N
    that every caller passes, is refused."""
    if n < 0:
        raise SpecError("N must be non-negative")
    return parse_spec(text, horizon=max(DEFAULT_HORIZON, n))


def build_parser() -> _Parser:
    parser = _Parser(prog="compsigns", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", metavar="DIR", help="also write files + run manifest here")

    p = sub.add_parser("counts", help="composition counts c_A(n)")
    p.add_argument("-A", required=True, metavar="SET")
    p.add_argument("-N", required=True, type=int)
    common(p)

    p = sub.add_parser("polys", help="coefficient triangle c_A(i, n)")
    p.add_argument("-A", required=True, metavar="SET")
    p.add_argument("-N", required=True, type=int)
    common(p)

    p = sub.add_parser("sk", help="weighted alternating sums S_k(n)")
    p.add_argument("-A", required=True, metavar="SET")
    p.add_argument("-K", required=True, type=int)
    p.add_argument("-N", required=True, type=int)
    p.add_argument("--route", choices=sorted(ROUTES) + ["all"],
                   default="fast")
    common(p)

    p = sub.add_parser("signs", help="sign word of one grid row")
    p.add_argument("-A", required=True, metavar="SET")
    p.add_argument("-k", required=True, type=int)
    p.add_argument("-N", required=True, type=int)
    p.add_argument("--normalized", action="store_true",
                   help="signs of (-1)^n S instead of S")
    p.add_argument("--detect", metavar="P,T",
                   help="scan for (preperiod <= P, period <= T)")
    common(p)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--suite", required=True,
                   choices=["section2", "prop33", "thm34", "thm36", "union"])
    p.add_argument("-A", metavar="SET")
    p.add_argument("-B", metavar="SET")
    p.add_argument("-E", metavar="SET")
    p.add_argument("-m", type=int)
    p.add_argument("-N", type=int, default=60)
    common(p)

    p = sub.add_parser("nonperiodic", help="dominant-root sign certificate")
    p.add_argument("-A", metavar="SET")
    p.add_argument("-p", metavar="COEFFS",
                   help="comma-separated coefficients, constant term first")
    p.add_argument("--exact", action="store_true")
    common(p)

    p = sub.add_parser("enumerate", help="scan all subsets of {1..N}")
    p.add_argument("-N", required=True, type=int)
    p.add_argument("--horizon", required=True, type=int)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for old command lines and otherwise ignored: "
                        "the scan runs in one process")
    common(p)

    p = sub.add_parser("construct", help="build a derived part set")
    p.add_argument("--thm36", action="store_true", required=True,
                   help="subset-sum set of an odd base set")
    p.add_argument("-B", required=True, metavar="SET")
    common(p)

    p = sub.add_parser("experiment", help="open-problem probes")
    p.add_argument("--problem44", action="store_true", required=True,
                   help="repunit-plus-base probe")
    p.add_argument("-m", required=True, type=int)
    p.add_argument("--horizon", type=int, default=2000)
    common(p)
    return parser


def _json_text(blob: dict) -> str:
    import json

    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


# each handler returns (exit_code, [(filename, body), ...]), a body being
# a str or a callable body(write); see the module docstring


def _cmd_counts(args):
    from .compositions import counts_csv

    spec = _spec(args.A, args.N)
    return 0, [("counts.csv", counts_csv(spec, args.N))]


def _cmd_polys(args):
    from .compositions import comp_polys, triangle_csv

    spec = _spec(args.A, args.N)
    return 0, [("triangle.csv", triangle_csv(comp_polys(spec, args.N)))]


def _cmd_sk(args):
    from .sums import grid_csv

    spec = _spec(args.A, args.N)
    if args.route != "all":
        grid = ROUTES[args.route](spec, args.K, args.N)
        return 0, [("grid.csv", grid_csv(grid))]
    grids = {name: fn(spec, args.K, args.N) for name, fn in ROUTES.items()}
    names = sorted(grids)
    first = grids[names[0]]
    if any(grids[name].values != first.values for name in names):
        # rare and fatal: only now find the first (k, n) to report
        for k in range(args.K + 1):
            for n in range(args.N + 1):
                vals = {name: grids[name].value(k, n) for name in names}
                if len(set(vals.values())) != 1:
                    shown = ", ".join(f"{name}={vals[name]}" for name in names)
                    raise InternalError(f"routes disagree at k={k} n={n}: {shown}")
    return 0, [("grid.csv", grid_csv(first))]


def _cmd_signs(args):
    from .signs import detect_period, sign_word
    from .sums import sk_fast

    if args.k < 0:  # before sk_fast, whose message would name -K
        raise SpecError("k must be non-negative")
    spec = _spec(args.A, args.N)
    grid = sk_fast(spec, args.k, args.N)
    word = sign_word(grid, args.k, normalized=args.normalized)
    out = [("word.txt", word.render() + "\n")]
    if args.detect:
        try:
            p, t = (int(x) for x in args.detect.split(","))
        except ValueError:
            raise SpecError(f"--detect wants P,T integers, got {args.detect!r}")
        finding = detect_period(word, p, t)
        blob = {"schema": SCHEMA, **finding.to_json()}
        out.append(("finding.json", _json_text(blob)))
    return 0, out


def _cmd_verify(args):
    suite = args.suite
    if suite == "section2":
        from .compositions import verify_identities

        if not args.A:
            raise SpecError("verify --suite section2 needs -A")
        report = verify_identities(_spec(args.A, args.N), args.N)
        text = "\n".join(report.summary_lines()) + "\n"
        return (0 if report.all_pass else 1), [("verify.txt", text)]
    if suite == "prop33":
        from .signs import check_range_set_pattern

        if args.m is None:
            raise SpecError("verify --suite prop33 needs -m")
        chk = check_range_set_pattern(args.m, args.N)
        text = (f"range set 1..{chk.m} n <= {chk.upto}: "
                + ("pass" if chk.passed else
                   f"FAIL first mismatch n={chk.first_mismatch}") + "\n")
        return (0 if chk.passed else 1), [("verify.txt", text)]
    if suite == "thm34":
        from .explorer import verify_cofinite_even_complement

        if args.E is None:
            raise SpecError("verify --suite thm34 needs -E")
        if args.N < 1:  # before the library, whose message names upto
            raise SpecError("N must be >= 1")
        chk = verify_cofinite_even_complement(_spec(args.E, args.N), args.N)
        lines = [
            f"removed even set {chk.removed} n <= {chk.upto} k <= {chk.k_max}",
            "identity: " + ("pass" if chk.identity_mismatch is None
                            else f"FAIL at n={chk.identity_mismatch}"),
            "non-negativity: " + ("pass" if chk.negative_at is None
                                  else "FAIL at (k=%d, n=%d)" % chk.negative_at),
        ]
        return (0 if chk.passed else 1), [("verify.txt", "\n".join(lines) + "\n")]
    if suite == "thm36":
        from .explorer import verify_distinct_subset_sums

        if not args.B:
            raise SpecError("verify --suite thm36 needs -B")
        chk = verify_distinct_subset_sums(_spec(args.B, args.N), args.N)
        lines = [
            f"base {chk.base} -> set {chk.constructed}",
            "partition identity n <= %d: " % chk.upto
            + ("pass" if chk.passed else f"FAIL at n={chk.mismatch_at}"),
        ]
        return (0 if chk.passed else 1), [("verify.txt", "\n".join(lines) + "\n")]
    # union
    from .explorer import union_relation_check

    if not (args.A and args.B):
        raise SpecError("verify --suite union needs -A and -B")
    ok = union_relation_check(_spec(args.A, args.N), _spec(args.B, args.N), args.N)
    text = f"union relation n <= {args.N}: " + ("pass" if ok else "FAIL") + "\n"
    return (0 if ok else 1), [("verify.txt", text)]


def _cmd_nonperiodic(args):
    from .nonperiodic import (
        NOT_EVENTUALLY_PERIODIC,
        check_nonperiodic,
        check_set_nonperiodic,
    )
    from .poly import IntPoly

    if bool(args.A) == bool(args.p):
        raise SpecError("nonperiodic needs exactly one of -A or -p")
    if args.A:
        report = check_set_nonperiodic(parse_spec(args.A), args.exact)
    else:
        try:
            coeffs = tuple(int(c) for c in args.p.split(","))
        except ValueError:
            raise SpecError(f"-p wants comma-separated integers, got {args.p!r}")
        report = check_nonperiodic(IntPoly(coeffs), args.exact)
    blob = {"schema": SCHEMA, **report.to_json()}
    code = 0 if report.verdict == NOT_EVENTUALLY_PERIODIC else 2
    return code, [("report.json", _json_text(blob))]


def _cmd_enumerate(args):
    from .explorer import enumerate_F, enumeration_json, verdicts_csv

    if args.jobs < 1:
        raise SpecError(f"jobs must be >= 1, got {args.jobs}")
    if args.N < 0:  # before the library, whose message names n
        raise SpecError("N must be non-negative")
    res = enumerate_F(args.N, args.horizon)
    return 0, [("enumerate.json", lambda write: enumeration_json(res, write, SCHEMA)),
               ("verdicts.csv", lambda write: verdicts_csv(res, write))]


def _cmd_construct(args):
    from .explorer import construct_distinct_subset_sums

    base = parse_spec(args.B)
    a = construct_distinct_subset_sums(base)
    blob = {
        "schema": SCHEMA,
        "base": str(base),
        "set": list(a.data),
        "size": len(a.data),
    }
    return 0, [("construct.json", _json_text(blob))]


def _cmd_experiment(args):
    from .explorer import repunit_extension_experiment

    if args.horizon < 0:  # before the library, whose message names n
        raise SpecError("horizon must be non-negative")
    probe = repunit_extension_experiment(args.m, args.horizon)
    blob = {
        "schema": SCHEMA,
        "m": probe.m,
        "horizon": probe.horizon,
        "members": list(probe.members),
        "first_violation": probe.first_violation,
        "passed": probe.passed,
        "note": probe.note,
    }
    code = 0 if probe.passed else 1
    return code, [("experiment.json", _json_text(blob))]


_HANDLERS = {
    "counts": _cmd_counts,
    "polys": _cmd_polys,
    "sk": _cmd_sk,
    "signs": _cmd_signs,
    "verify": _cmd_verify,
    "nonperiodic": _cmd_nonperiodic,
    "enumerate": _cmd_enumerate,
    "construct": _cmd_construct,
    "experiment": _cmd_experiment,
}


def _write_body(body, write) -> None:
    if isinstance(body, str):
        write(body)
    else:
        body(write)


def _emit(outputs, directory: Path | None) -> list[dict]:
    """Print every output; with a directory, tee each into its file there.
    Returns the manifest entries of the written files."""
    if directory is not None:
        import hashlib
    entries = []
    for name, body in outputs:
        write = sys.stdout.write
        if directory is None:
            _write_body(body, write)
            continue
        digest, size = hashlib.sha256(), 0
        with open(directory / name, "wb") as fh:
            def tee(text):
                nonlocal size
                write(text)
                data = text.encode()
                fh.write(data)
                digest.update(data)
                size += len(data)
            _write_body(body, tee)
        entries.append({"path": name, "sha256": digest.hexdigest(), "bytes": size})
    return entries


def _write_manifest(directory: Path, argv: list[str], args, entries, elapsed: float) -> None:
    params = {k: v for k, v in vars(args).items() if k != "out"}
    manifest = {
        "schema": "compsigns.run/1",
        "version": __version__,
        "argv": argv,
        "command": args.command,
        "params": params,
        "outputs": entries,
        "wall_time_s": round(elapsed, 6),
    }
    (directory / "run_manifest.json").write_text(_json_text(manifest))


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()  # the manifest's wall time covers the parser too
    argv = list(sys.argv[1:] if argv is None else argv)
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.11 caps it at 4300 digits
        sys.set_int_max_str_digits(0)  # exact integers print in full
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, outputs = _HANDLERS[args.command](args)
        directory = None
        if args.out:
            from pathlib import Path

            directory = Path(args.out)
            directory.mkdir(parents=True, exist_ok=True)
        entries = _emit(outputs, directory)
        sys.stdout.flush()  # a closed stdout must fail here, not at exit
        if directory is not None:
            _write_manifest(directory, argv, args, entries, time.monotonic() - started)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # the reader left; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception:  # a bug: never report it as a verdict or usage error
        import traceback

        traceback.print_exc()
        return 4
    return code


def run() -> None:
    """The process entry point: main(), then exit without interpreter teardown.

    This is safe because main closes every file it writes before it
    returns, and no module registers work for exit (atexit, weakref
    finalizers, tempfile).  A flush into a pipe the reader has closed ends
    quietly with 141, as main does; any other failed flush leaves through
    sys.exit."""
    try:
        code = main()
    except SystemExit as exc:  # argparse ends --version and --help
        code = exc.code or 0
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # argparse's text, printed outside main's handler
        os._exit(141)
    except (OSError, ValueError):  # a closed file
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
