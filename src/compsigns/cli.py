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

The command line is read against one option table, ``_COMMANDS``, in
argparse's spellings: ``-N 5``, ``-N5``, ``-N=5``, ``--horizon=5``, a
unique prefix of a long option, a negative value (``-N -1``) and ``--``,
after which every token is a value.  Refused input exits 3 with
argparse's message.  ``-h``/``--help`` and ``--version`` print from
``main``, which returns 0.

``nonperiodic`` runs at a fixed working precision of 256 bits, with every
tolerance and budget fixed; ``--exact`` is its one setting.
``--precision`` and ``--config`` exit 3 as unrecognised arguments.
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace  # already loaded by runpy, or by re in the console script

from . import InternalError, __version__
from .sets import DEFAULT_HORIZON, SetSpec, SpecError, parse_spec

# each handler imports the capability modules it runs, and stdlib modules
# that serve one branch load in that branch, so that a run pays at
# start-up only for its own subcommand; type checkers read this flag as
# typing's, which the run need not import
TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path

SCHEMA = "compsigns/1"

_OUT = {"--out": dict(metavar="DIR", help="also write files + run manifest here")}

# every subcommand: (help, {flag: options}), the options in argparse's own
# keywords, so that a test can build the argparse parser this one must match
_COMMANDS = {
    "counts": ("composition counts c_A(n)", {
        "-A": dict(required=True, metavar="SET"),
        "-N": dict(required=True, type=int),
        **_OUT}),
    "polys": ("coefficient triangle c_A(i, n)", {
        "-A": dict(required=True, metavar="SET"),
        "-N": dict(required=True, type=int),
        **_OUT}),
    "sk": ("weighted alternating sums S_k(n)", {
        "-A": dict(required=True, metavar="SET"),
        "-K": dict(required=True, type=int),
        "-N": dict(required=True, type=int),
        # sums.ROUTES, sorted, then all
        "--route": dict(choices=["conv", "direct", "fast", "q", "all"], default="fast"),
        **_OUT}),
    "signs": ("sign word of one grid row", {
        "-A": dict(required=True, metavar="SET"),
        "-k": dict(required=True, type=int),
        "-N": dict(required=True, type=int),
        "--normalized": dict(action="store_true", help="signs of (-1)^n S instead of S"),
        "--detect": dict(metavar="P,T", help="scan for (preperiod <= P, period <= T)"),
        **_OUT}),
    "verify": ("run one verification suite", {
        "--suite": dict(required=True,
                        choices=["section2", "prop33", "thm34", "thm36", "union"]),
        "-A": dict(metavar="SET"),
        "-B": dict(metavar="SET"),
        "-E": dict(metavar="SET"),
        "-m": dict(type=int),
        "-N": dict(type=int, default=60),
        **_OUT}),
    "nonperiodic": ("dominant-root sign certificate", {
        "-A": dict(metavar="SET"),
        "-p": dict(metavar="COEFFS",
                   help="comma-separated coefficients, constant term first"),
        "--exact": dict(action="store_true"),
        **_OUT}),
    "enumerate": ("scan all subsets of {1..N}", {
        "-N": dict(required=True, type=int),
        "--horizon": dict(required=True, type=int),
        "--jobs": dict(type=int, default=1,
                       help="accepted for old command lines and otherwise ignored: "
                            "the scan runs in one process"),
        **_OUT}),
    "construct": ("build a derived part set", {
        "--thm36": dict(action="store_true", required=True,
                        help="subset-sum set of an odd base set"),
        "-B": dict(required=True, metavar="SET"),
        **_OUT}),
    "experiment": ("open-problem probes", {
        "--problem44": dict(action="store_true", required=True,
                            help="repunit-plus-base probe"),
        "-m": dict(required=True, type=int),
        "--horizon": dict(type=int, default=2000),
        **_OUT}),
}

_HELP = ("-h", "--help")


class _UsageError(Exception):
    pass


def _classify(token: str, flags) -> tuple | None:
    """Read one token as argparse does: None for a value, else (flag,
    attached), where flag is None for an unknown option and attached is a
    value written into the token (``-N5``, ``-N=5``, ``--horizon=5``).  A
    unique prefix of a long flag names that flag."""
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, attached = token.partition("=")
    if eq and name in flags:
        return name, attached
    if token[1] == "-":
        hits = [(f, attached if eq else None) for f in flags if f.startswith(name)]
    else:
        hits = [(f, token[2:] if f == token[:2] else None) for f in flags
                if f == token[:2] or f.startswith(token)]
    if len(hits) > 1:
        raise _UsageError(f"ambiguous option: {token} could match "
                          + ", ".join(f for f, _ in hits))
    if hits:
        return hits[0]
    whole, dot, frac = token[1:].partition(".")
    if (whole + frac).isdecimal() and (not dot or frac.isdecimal()) or " " in token:
        return None  # a negative number (-1, -.5) or text with a space
    return None, None


def _kinds(tokens: list[str], flags) -> list:
    """Read every token before the first "--" as _classify does: argparse
    reads them all before it takes any, so an ambiguous one is refused
    first.  From "--" on every token is a value."""
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    return [_classify(token, flags) for token in tokens[:cut]]


def _unbundle(flag: str, attached: str | None, flags) -> tuple:
    """Read short flags written after -h as argparse does, each as its own
    (``-hN5`` is -h, then -N5): the last flag, its attached text, and
    whether -h came first."""
    helps = False
    while flag == "-h" and attached and "-" + attached[0] in flags:
        helps, flag, attached = True, "-" + attached[0], attached[1:] or None
    return flag, attached, helps


def _choice(name: str, value, choices) -> None:
    if value not in choices:
        shown = ", ".join(map(repr, choices))
        raise _UsageError(f"argument {name}: invalid choice: {value!r} (choose from {shown})")


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """Parse argv against ``_COMMANDS`` as argparse would.  Returns the
    parsed arguments, or the text that --help or --version prints;
    refused input raises _UsageError with argparse's message."""
    extras, flags = [], (*_HELP, "--version")
    kinds = _kinds(argv, flags)
    for i, kind in enumerate(kinds):  # options before the subcommand
        if kind is None:
            break
        if kind[0] is None:
            extras.append(argv[i])
            continue
        flag, attached, _ = _unbundle(*kind, flags)
        if attached is not None:
            name = flag if flag == "--version" else "/".join(_HELP)
            raise _UsageError(f"argument {name}: ignored explicit argument {attached!r}")
        return __version__ + "\n" if flag == "--version" else _help()
    else:  # the command is "--", if a token follows it
        i = len(kinds)
        if i + 1 >= len(argv):
            raise _UsageError("the following arguments are required: command")
    _choice("command", argv[i], list(_COMMANDS))
    command, tokens = argv[i], argv[i + 1:]
    options = _COMMANDS[command][1]
    values = {"command": command}
    values.update((f.lstrip("-"), kw.get("default", False if "action" in kw else None))
                  for f, kw in options.items())
    # no option takes the values from "--" on, so they are unrecognized
    flags = (*_HELP, *options)
    kinds = _kinds(tokens, flags)
    cut = len(kinds)
    seen, j = set(), 0
    while j < cut:
        token, kind = tokens[j], kinds[j]
        j += 1
        if kind is None or kind[0] is None:
            extras.append(token)
            continue
        flag, attached, helps = _unbundle(*kind, flags)
        kw = options.get(flag, {"action": "help"})
        name = "/".join(_HELP) if flag in _HELP else flag
        if "action" in kw:
            if attached is not None:
                raise _UsageError(f"argument {name}: ignored explicit argument {attached!r}")
            attached = True
        elif attached is None:
            if j == cut or kinds[j] is not None:
                raise _UsageError(f"argument {flag}: expected one argument")
            attached = tokens[j]
            j += 1
        if helps or flag in _HELP:  # help is taken first, before any value is read
            return _help(command)
        if "type" in kw:
            try:
                attached = kw["type"](attached)
            except ValueError:
                raise _UsageError(f"argument {flag}: invalid {kw['type'].__name__} "
                                  f"value: {attached!r}") from None
        if "choices" in kw:
            _choice(flag, attached, kw["choices"])
        values[flag.lstrip("-")] = attached
        seen.add(flag)
    missing = [f for f, kw in options.items() if kw.get("required") and f not in seen]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    extras += tokens[cut:]
    if extras:
        raise _UsageError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


def _help(command: str | None = None) -> str:
    """The text of --help, written from the option table."""
    if command is None:
        return (f"usage: compsigns [-h] [--version] COMMAND ...\n\n{__doc__.splitlines()[0]}"
                "\n\ncommands:\n"
                + "".join(f"  {name:<12} {text}\n" for name, (text, _) in _COMMANDS.items()))
    about, options = _COMMANDS[command]
    usage, rows = [], [f"  {'-h, --help':<12} show this help message and exit"]
    for flag, kw in options.items():
        shown = flag
        if "action" not in kw:
            choices = kw.get("choices")
            shown += " " + (kw.get("metavar") or choices and "{%s}" % ",".join(choices)
                            or flag.lstrip("-").upper())
        usage.append(shown if kw.get("required") else f"[{shown}]")
        rows.append(f"  {shown:<12} {kw.get('help', '')}".rstrip())
    return (f"usage: compsigns {command} [-h] {' '.join(usage)}\n\n{about}\n\noptions:\n"
            + "\n".join(rows) + "\n")


def _spec(text: str, n: int) -> SetSpec:
    """Parse a set for a run up to n.  No query is limited by a horizon;
    the default one is widened to n because thm34 and thm36 print it
    (``@H``), and an explicit @H suffix still wins.  A negative n, the -N
    that every caller passes, is refused."""
    if n < 0:
        raise SpecError("N must be non-negative")
    return parse_spec(text, horizon=max(DEFAULT_HORIZON, n))


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
    from .sums import ROUTES, grid_csv

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


# the set and m options each verify suite reads and needs; it refuses the others
_SUITE_READS = {"section2": "A", "prop33": "m", "thm34": "E", "thm36": "B", "union": "AB"}


def _cmd_verify(args):
    suite = args.suite
    reads = _SUITE_READS[suite]
    for name in "ABEm":
        if getattr(args, name) is not None and name not in reads:
            raise SpecError(f"verify --suite {suite} does not read -{name}")
    # a check over no n would pass; refused before the library, whose
    # messages name upto
    if args.N < 1:
        raise SpecError("N must be >= 1")
    if any(getattr(args, name) in (None, "") for name in reads):
        raise SpecError(f"verify --suite {suite} needs " + " and ".join(f"-{n}" for n in reads))
    if suite == "section2":
        from .compositions import verify_identities

        report = verify_identities(_spec(args.A, args.N), args.N)
        text = "\n".join(report.summary_lines()) + "\n"
        return (0 if report.all_pass else 1), [("verify.txt", text)]
    if suite == "prop33":
        from .signs import check_range_set_pattern

        chk = check_range_set_pattern(args.m, args.N)
        text = (f"range set 1..{chk.m} n <= {chk.upto}: "
                + ("pass" if chk.passed else
                   f"FAIL first mismatch n={chk.first_mismatch}") + "\n")
        return (0 if chk.passed else 1), [("verify.txt", text)]
    if suite == "thm34":
        from .explorer import verify_cofinite_even_complement

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

        chk = verify_distinct_subset_sums(_spec(args.B, args.N), args.N)
        lines = [
            f"base {chk.base} -> set {chk.constructed}",
            "partition identity n <= %d: " % chk.upto
            + ("pass" if chk.passed else f"FAIL at n={chk.mismatch_at}"),
        ]
        return (0 if chk.passed else 1), [("verify.txt", "\n".join(lines) + "\n")]
    # union
    from .explorer import union_relation_check

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

    # a probe of no n would pass; refused before the library, whose
    # message names n
    if args.horizon < 1:
        raise SpecError("horizon must be >= 1")
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
    try:
        args = _parse(argv)
        if isinstance(args, str):  # --help or --version: print it, run nothing
            sys.stdout.write(args)
            sys.stdout.flush()
            return 0
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
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # what a failed run left in the buffer
        os._exit(141)
    except (OSError, ValueError):  # a closed file
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
