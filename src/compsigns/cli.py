"""Command-line front end.

Every capability is exposed through one subcommand with reproducible,
machine-readable output: identical command and inputs give byte-identical
primary output.  Exit codes: 0 success/pass, 1 property violated (a
counterexample is emitted), 2 inconclusive, 3 usage error, 4 internal
error (a broken invariant inside compsigns: a bug, never a verdict).

With ``--out DIR`` the primary output is also written into DIR next to a
``run_manifest.json`` recording the command line, parameters, sha256
digests of every written file, tool version and wall-clock time (the
manifest is metadata; the determinism promise covers the primary files).

``--config FILE`` supplies certifier tolerances as ``key=value`` lines
(``#`` comments allowed); values may use the exact power form ``2^-20``.
Keys: precision, residual_tol, gap_tol, unity_tol, exact_max_degree,
max_iterations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from pathlib import Path

from . import InternalError, __version__
from .compositions import comp_polys, counts_csv, triangle_csv, verify_identities
from .explorer import (
    construct_distinct_subset_sums,
    enumerate_F,
    enumeration_json,
    repunit_extension_experiment,
    union_relation_check,
    verdicts_csv,
    verify_cofinite_even_complement,
    verify_distinct_subset_sums,
)
from .nonperiodic import (
    INCONCLUSIVE,
    NOT_EVENTUALLY_PERIODIC,
    CertConfig,
    check_nonperiodic,
    check_set_nonperiodic,
)
from .poly import IntPoly
from .sets import SetSpec, SpecError, parse_spec
from .signs import check_range_set_pattern, detect_period, sign_word
from .sums import ROUTES, IntegralityError, grid_csv, sk_fast

SCHEMA = "compsigns/1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants 3
    def error(self, message):
        raise _UsageError(message)


def _spec(text: str, need: int) -> SetSpec:
    """Parse a set, making sure its query horizon covers n <= need."""
    spec = parse_spec(text)
    if "@" not in text and spec.horizon < need:
        spec = parse_spec(text, horizon=need)
    return spec


_POWER = re.compile(r"^2\^(-?\d+)$")


def _num(text: str) -> float:
    m = _POWER.match(text)
    if m:
        return 2.0 ** int(m.group(1))
    return float(text)


def load_config(path: str | Path, exact: bool = False) -> CertConfig:
    kv: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"bad config line {raw!r} (want key=value)")
        key, _, val = line.partition("=")
        kv[key.strip()] = val.strip()
    known = {
        "precision": int,
        "residual_tol": _num,
        "gap_tol": _num,
        "unity_tol": _num,
        "exact_max_degree": int,
        "max_iterations": int,
    }
    fields = {}
    for key, val in kv.items():
        if key not in known:
            raise SpecError(f"unknown config key {key!r}")
        fields[key] = known[key](val)
    return CertConfig(exact=exact, **fields)


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
    p.add_argument("--route", choices=sorted(ROUTES) + ["all"], default="fast")
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
    p.add_argument("--config", metavar="FILE")
    common(p)

    p = sub.add_parser("enumerate", help="scan all subsets of {1..N}")
    p.add_argument("-N", required=True, type=int)
    p.add_argument("--horizon", required=True, type=int)
    p.add_argument("--jobs", type=int, default=1)
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
    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


# each handler returns (exit_code, [(filename, text), ...]); the first
# file is the primary output and is printed to stdout


def _cmd_counts(args):
    spec = _spec(args.A, args.N)
    return 0, [("counts.csv", counts_csv(spec, args.N))]


def _cmd_polys(args):
    spec = _spec(args.A, args.N)
    return 0, [("triangle.csv", triangle_csv(comp_polys(spec, args.N)))]


def _cmd_sk(args):
    spec = _spec(args.A, args.N)
    if args.route != "all":
        grid = ROUTES[args.route](spec, args.K, args.N)
        return 0, [("grid.csv", grid_csv(grid))]
    grids = {name: fn(spec, args.K, args.N) for name, fn in ROUTES.items()}
    names = sorted(grids)
    first = grids[names[0]]
    for k in range(args.K + 1):
        for n in range(args.N + 1):
            vals = {name: grids[name].value(k, n) for name in names}
            if len(set(vals.values())) != 1:
                lines = [f"routes disagree at k={k} n={n}:"]
                lines += [f"  {name}: {vals[name]}" for name in names]
                return 1, [("violation.txt", "\n".join(lines) + "\n")]
    return 0, [("grid.csv", grid_csv(first))]


def _cmd_signs(args):
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
        if not args.A:
            raise SpecError("verify --suite section2 needs -A")
        report = verify_identities(_spec(args.A, args.N), args.N)
        text = "\n".join(report.summary_lines()) + "\n"
        return (0 if report.all_pass else 1), [("verify.txt", text)]
    if suite == "prop33":
        if args.m is None:
            raise SpecError("verify --suite prop33 needs -m")
        chk = check_range_set_pattern(args.m, args.N)
        text = (f"range set 1..{chk.m} n <= {chk.upto}: "
                + ("pass" if chk.passed else
                   f"FAIL first mismatch n={chk.first_mismatch}") + "\n")
        return (0 if chk.passed else 1), [("verify.txt", text)]
    if suite == "thm34":
        if args.E is None:
            raise SpecError("verify --suite thm34 needs -E")
        chk = verify_cofinite_even_complement(parse_spec(args.E), args.N)
        lines = [
            f"removed even set {chk.removed} n <= {chk.upto} k <= {chk.k_max}",
            "identity: " + ("pass" if chk.identity_mismatch is None
                            else f"FAIL at n={chk.identity_mismatch}"),
            "non-negativity: " + ("pass" if chk.negative_at is None
                                  else "FAIL at (k=%d, n=%d)" % chk.negative_at),
        ]
        return (0 if chk.passed else 1), [("verify.txt", "\n".join(lines) + "\n")]
    if suite == "thm36":
        if not args.B:
            raise SpecError("verify --suite thm36 needs -B")
        chk = verify_distinct_subset_sums(parse_spec(args.B), args.N)
        lines = [
            f"base {chk.base} -> set {chk.constructed}",
            "partition identity n <= %d: " % chk.upto
            + ("pass" if chk.passed else f"FAIL at n={chk.mismatch_at}"),
        ]
        return (0 if chk.passed else 1), [("verify.txt", "\n".join(lines) + "\n")]
    # union
    if not (args.A and args.B):
        raise SpecError("verify --suite union needs -A and -B")
    ok = union_relation_check(_spec(args.A, args.N), _spec(args.B, args.N), args.N)
    text = f"union relation n <= {args.N}: " + ("pass" if ok else "FAIL") + "\n"
    return (0 if ok else 1), [("verify.txt", text)]


def _cmd_nonperiodic(args):
    if bool(args.A) == bool(args.p):
        raise SpecError("nonperiodic needs exactly one of -A or -p")
    config = (load_config(args.config, exact=args.exact) if args.config
              else CertConfig(exact=args.exact))
    if args.A:
        report = check_set_nonperiodic(parse_spec(args.A), config)
    else:
        try:
            coeffs = tuple(int(c) for c in args.p.split(","))
        except ValueError:
            raise SpecError(f"-p wants comma-separated integers, got {args.p!r}")
        report = check_nonperiodic(IntPoly(coeffs), config)
    blob = {"schema": SCHEMA, **report.to_json()}
    code = 0 if report.verdict == NOT_EVENTUALLY_PERIODIC else 2
    return code, [("report.json", _json_text(blob))]


def _cmd_enumerate(args):
    res = enumerate_F(args.N, args.horizon, jobs=args.jobs)
    blob = {"schema": SCHEMA, **enumeration_json(res)}
    return 0, [("enumerate.json", _json_text(blob)),
               ("verdicts.csv", verdicts_csv(res))]


def _cmd_construct(args):
    a = construct_distinct_subset_sums(parse_spec(args.B))
    blob = {
        "schema": SCHEMA,
        "base": str(parse_spec(args.B)),
        "set": list(a.data),
        "size": len(a.data),
    }
    return 0, [("construct.json", _json_text(blob))]


def _cmd_experiment(args):
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


def _write_outputs(out_dir: str, argv: list[str], args, outputs, elapsed: float) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, text in outputs:
        data = text.encode()
        (directory / name).write_bytes(data)
        entries.append({
            "path": name,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        })
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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        code, outputs = _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except IntegralityError as exc:
        print(f"integrality violated: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # SpecError, HorizonError, bad numbers
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for _, text in outputs:
        sys.stdout.write(text)
    if getattr(args, "out", None):
        _write_outputs(args.out, argv, args, outputs, time.monotonic() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
