"""Tests for the command-line front end: outputs, exit codes, manifests."""

import argparse
import ast
import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from oracles import alt_moment_sum

import compsigns
from compsigns import InternalError, cli, compositions, explorer, nonperiodic, poly, signs, sums
from compsigns.cli import main
from compsigns.explorer import enumerate_F
from compsigns.poly import IntPoly
from compsigns.sets import parse_spec
from compsigns.sums import SkGrid, sk_fast


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def test_counts_example(capsys):
    code, out = run(capsys, "counts", "-A", "{1,2,3}", "-N", "4")
    assert code == 0
    lines = out.out.strip().split("\n")
    assert lines[0] == "n,c_A(n)"
    assert lines[-1] == "4,7"


def test_polys_triangle(capsys):
    code, out = run(capsys, "polys", "-A", "{1,2,3}", "-N", "4")
    assert code == 0
    lines = out.out.strip().split("\n")
    assert lines[0] == "n,i,c_A(i,n)"
    assert "4,2,3" in lines and "4,3,3" in lines and "4,4,1" in lines


def test_sk_single_route(capsys):
    code, out = run(capsys, "sk", "-A", "{1,2,3}", "-K", "1", "-N", "4",
                    "--route", "direct")
    assert code == 0
    assert "1,4,1" in out.out.split()  # S_1(4) = 1


def test_sk_all_routes_agree(capsys):
    for spec in ("{1,4}", "{}"):
        results = []
        for route in ("direct", "fast", "q", "conv", "all"):
            code, out = run(capsys, "sk", "-A", spec, "-K", "3", "-N", "25",
                            "--route", route)
            assert code == 0, out.err
            results.append(out.out)
        assert len(set(results)) == 1, spec


def test_sk_route_disagreement_exits_4(capsys, monkeypatch):
    def tampered(spec, k_max, n_max):
        grid = sk_fast(spec, k_max, n_max)
        rows = [list(r) for r in grid.values]
        rows[0][2] += 1
        return SkGrid(grid.K, grid.N, tuple(tuple(r) for r in rows))

    monkeypatch.setitem(sums.ROUTES, "fast", tampered)
    code, out = run(capsys, "sk", "-A", "{1,2}", "-K", "1", "-N", "6",
                    "--route", "all")
    assert code == 4
    assert out.out == ""
    assert "routes disagree at k=0 n=2" in out.err


def test_integrality_error_exits_4(capsys, monkeypatch):
    # a q-series no composition table could produce leaves a remainder in
    # the q-route's exact division: a bug, not a counterexample
    real = sums.q_series_scaled

    def perturbed(spec, order):
        m, q = real(spec, order)
        return m, q[:3] + [q[3] + 1] + q[4:]

    monkeypatch.setattr(sums, "q_series_scaled", perturbed)
    with pytest.raises(sums.IntegralityError):
        sums.sk_via_q(parse_spec("{2}"), 1, 6)
    code, out = run(capsys, "sk", "-A", "{2}", "-K", "1", "-N", "6",
                    "--route", "q")
    assert code == 4
    assert out.out == ""
    assert "internal error: S_1(" in out.err


def test_signs_word_and_detect(capsys):
    code, out = run(capsys, "signs", "-A", "{1,2}", "-k", "0", "-N", "5",
                    "--normalized")
    assert code == 0
    assert out.out == "++0--0\n"
    code, out = run(capsys, "signs", "-A", "{1,2}", "-k", "0", "-N", "30",
                    "--normalized", "--detect", "5,8")
    assert code == 0
    word, rest = out.out.split("\n", 1)
    blob = json.loads(rest)
    assert blob["verdict"] == "ConsistentAtHorizon"
    assert blob["preperiod"] == 0 and blob["period"] == 6
    assert blob["pattern"] == "++0--0"


def test_verify_suites_pass(capsys):
    cases = [
        ("verify", "--suite", "section2", "-A", "{1,2}", "-N", "25"),
        ("verify", "--suite", "prop33", "-m", "4", "-N", "120"),
        ("verify", "--suite", "thm34", "-E", "{2,6}", "-N", "80"),
        ("verify", "--suite", "thm36", "-B", "{1,3}", "-N", "80"),
        ("verify", "--suite", "union", "-A", "{1,3}", "-B", "{2,4}", "-N", "30"),
    ]
    for argv in cases:
        code, out = run(capsys, *argv)
        assert code == 0, out.err
        assert "FAIL" not in out.out


# the horizon shows only in how a set prints; the benchmark pins @1000 in
# these lines, so the N = 300 rows fail here first when the form changes
@pytest.mark.parametrize("argv, lines", [
    (("thm34", "-E", "{2,6}", "-N", "1200"),
     ["removed even set {2,6}@1200 n <= 1200 k <= 3", "identity: pass", "non-negativity: pass"]),
    (("thm36", "-B", "{1,3,5}", "-N", "1200"),
     ["base {1,3,5}@1200 -> set {1,3,4,5,6,8,9}@1200", "partition identity n <= 1200: pass"]),
    (("thm34", "-E", "{2,6}", "-N", "300"),
     ["removed even set {2,6}@1000 n <= 300 k <= 3", "identity: pass", "non-negativity: pass"]),
    (("thm36", "-B", "{1,3,5}", "-N", "300"),
     ["base {1,3,5}@1000 -> set {1,3,4,5,6,8,9}@1000", "partition identity n <= 300: pass"]),
], ids=["thm34", "thm36", "thm34-300", "thm36-300"])
def test_verify_suites_widen_the_default_horizon_to_n(capsys, argv, lines):
    code, out = run(capsys, "verify", "--suite", *argv)
    assert code == 0, out.err
    assert out.out.splitlines() == lines


def test_sk_q_route_widens_the_default_horizon(capsys):
    # the q-series up to n reads the parts up to n + min(A)
    code, fast = run(capsys, "sk", "-A", "repunit(3)", "-K", "1", "-N", "1000")
    assert code == 0, fast.err
    code, out = run(capsys, "sk", "-A", "repunit(3)", "-K", "1", "-N", "1000",
                    "--route", "q")
    assert code == 0, out.err
    assert out.out == fast.out


@pytest.mark.parametrize("spec", ["N+\\{1}", "N+\\{1}@40"])
def test_section2_answers_past_the_horizon(capsys, monkeypatch, spec):
    # the q-series to n = 40 reads the parts up to 42, past either horizon
    monkeypatch.setattr(cli, "DEFAULT_HORIZON", 40)
    code, out = run(capsys, "verify", "--suite", "section2", "-A", spec, "-N", "40")
    assert code == 0, out.err
    assert out.out.splitlines() == [f"{name}: pass" for name in compositions.IDENTITY_NAMES]


# runs that read a set past its @H suffix answer as if it were not there
@pytest.mark.parametrize("line", [
    'sk -A "{1,4,5}@10" -K 2 -N 20 --route all',
    "verify --suite section2 -A 'N+\\{1}@40' -N 42",
    "counts -A 'repunit(3)@20' -N 50",
    'counts -A "{1,2}@5" -N 10',
], ids=["sk-all", "section2", "repunit-counts", "finite-counts"])
def test_runs_past_the_horizon_print_the_suffix_free_bytes(capsys, line):
    argv = shlex.split(line)
    code, out = run(capsys, *argv)
    assert code == 0, out.err
    i = argv.index("-A") + 1
    bare = argv[:i] + [argv[i].rpartition("@")[0]] + argv[i + 1:]
    assert run(capsys, *bare) == (0, out)


def test_verify_missing_suite_input(capsys):
    code, out = run(capsys, "verify", "--suite", "thm36", "-N", "40")
    assert code == 3
    assert "needs -B" in out.err


def test_nonperiodic_exit_codes(capsys):
    code, out = run(capsys, "nonperiodic", "-A", "{2,3}")
    assert code == 0
    assert json.loads(out.out)["verdict"] == "NotEventuallyPeriodic"
    code, out = run(capsys, "nonperiodic", "-p", "1,-1,-1")
    assert code == 2
    assert json.loads(out.out)["verdict"] == "Inconclusive"
    code, out = run(capsys, "nonperiodic", "-A", "{1,3}")
    assert code == 3  # settled all-odd set, nothing to certify
    code, out = run(capsys, "nonperiodic", "-A", "{2,3}", "-p", "1,1,1")
    assert code == 3
    code, out = run(capsys, "nonperiodic", "-p", "1,a,2")
    assert code == 3


def test_nonperiodic_reads_a_finite_set_past_its_horizon(capsys):
    # the even part 12 lies past the horizon 10, and the set still has it
    code, out = run(capsys, "nonperiodic", "-A", "{1,12}")
    assert code == 0, out.err
    code, short = run(capsys, "nonperiodic", "-A", "{1,12}@10")
    assert code == 0, short.err
    assert short.out == out.out


@pytest.mark.parametrize("top", [302, 1002])
def test_nonperiodic_past_the_degree_cap_ends_promptly(capsys, top):
    # the root finder would run for minutes here; the cap refuses first
    assert top > nonperiodic.ROOT_DEGREE_CAP
    started = time.perf_counter()
    code, out = run(capsys, "nonperiodic", "-A", f"{{1,{top}}}")
    assert time.perf_counter() - started < 2
    assert code == 2, out.err
    blob = json.loads(out.out)
    assert blob["verdict"] == "Inconclusive"
    assert blob["reasons"] == [nonperiodic.REASON_DEGREE]
    assert blob["roots"] is None


def test_nonperiodic_exact_flag(capsys):
    code, out = run(capsys, "nonperiodic", "-A", "{1,4}", "--exact")
    assert code == 0
    blob = json.loads(out.out)
    assert blob["exact_test"]["divisor_order"] is None
    assert blob["config"]["exact"] is True


def test_internal_error_exits_4(capsys, monkeypatch):
    def broken(p):
        raise InternalError("invariant broken on purpose")

    monkeypatch.setattr(nonperiodic, "ratio_poly", broken)
    code, out = run(capsys, "nonperiodic", "-A", "{2,3}", "--exact")
    assert code == 4
    assert out.out == ""
    assert "internal error: invariant broken on purpose" in out.err


def test_inexact_division_in_yun_exits_4(capsys, monkeypatch):
    # a gcd that does not divide its argument leaves a remainder in one of
    # Yun's divisions over the integers: a broken invariant, not a verdict
    monkeypatch.setattr(poly, "poly_gcd", lambda a, b: IntPoly((1, 1)))
    code, out = run(capsys, "nonperiodic", "-p", "1,1,1")
    assert code == 4
    assert out.out == ""
    assert "internal error: a degree 1 divisor leaves a remainder" in out.err


def test_unlocatable_identity_failure_exits_4(capsys, monkeypatch):
    # value tables that disagree with the coefficient table are a kernel
    # bug: the coefficient check finds nothing to report, and that must not
    # read as a counterexample.  The tables at t = 1 only size the
    # evaluation point, so the skew goes into the tables at that point
    real = compositions.sk_rows

    def skewed(members, k_max, n_max, t):
        rows = real(members, k_max, n_max, t)
        if t != 1:
            rows[0][5] += 1
        return rows

    monkeypatch.setattr(compositions, "sk_rows", skewed)
    with pytest.raises(InternalError):
        compositions.verify_identities(parse_spec("{1,2,5}"), 20)
    code, out = run(capsys, "verify", "--suite", "section2", "-A", "{1,2,5}", "-N", "20")
    assert code == 4
    assert out.out == ""
    assert "internal error" in out.err


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def crash(args):
        return 1 // 0

    monkeypatch.setitem(cli._HANDLERS, "counts", crash)
    code, out = run(capsys, "counts", "-A", "{1,2}", "-N", "5")
    assert code == 4
    assert out.out == ""
    assert "ZeroDivisionError" in out.err and "Traceback" in out.err


def test_numeric_stack_loaded_only_by_the_certifier(tmp_path):
    # a fresh process: a non-certifier run loads neither the certifier
    # module nor mpmath, the certifier never loads mpmath, even when it
    # runs, and numpy never loads; the process-pool machinery
    # stays out too, even for a scan run with --jobs 2, and no run, the
    # certifier's included, loads fractions or decimal.  Each run loads
    # only its own subcommand: no module a bare interpreter lacks that
    # serves records, crashes, JSON output or --out alone.  Start-up
    # (--version) loads the package, its parser and sets alone, no run
    # loads argparse, and the certifier and the scan load neither
    # compositions nor sums
    script = textwrap.dedent("""
        import sys
        bare = set(sys.argv[1].split())
        import compsigns.cli

        def no_fraction_modules():
            assert not {"fractions", "decimal"} & set(sys.modules), sys.modules

        def run(*argv):
            assert compsigns.cli.main(list(argv)) == 0
            no_fraction_modules()
            print("new", argv[0], " ".join(sorted(set(sys.modules) - bare)))

        run("counts", "-A", "{1,2}", "-N", "5")
        run("verify", "--suite", "union", "-A", "{1,3}", "-B", "{2,4}", "-N", "30")
        run("signs", "-A", "{2,3}", "-k", "0", "-N", "60", "--normalized",
            "--detect", "10,20")
        run("enumerate", "-N", "8", "--horizon", "32", "--jobs", "2")
        assert "compsigns.nonperiodic" not in sys.modules
        import compsigns.nonperiodic
        print("loaded", sorted(m for m in ("numpy", "mpmath") if m in sys.modules))
        print("pool", "concurrent.futures.process" in sys.modules)
        assert compsigns.cli.main(["nonperiodic", "-p", "1,1,1"]) == 2
        no_fraction_modules()
        print("loaded", sorted(m for m in ("numpy", "mpmath") if m in sys.modules))
        run("counts", "-A", "{1,2}", "-N", "5", "--out", sys.argv[2])
    """)
    src = Path(compsigns.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    # a bare interpreter, with the standard-library modules that
    # compsigns._backend imports, which every run loads with the package
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, collections, itertools, math, operator; "
                               "print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    out_dir = tmp_path / "counts"
    proc = subprocess.run(
        [sys.executable, "-c", script, bare, str(out_dir)],
        env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    loaded = [ln for ln in lines if ln.startswith("loaded ")]
    assert loaded == ["loaded []", "loaded []"]
    assert "pool False" in lines
    new = {}
    for ln in lines:
        if ln.startswith("new "):
            _, command, *names = ln.split(" ")
            new.setdefault(command, []).append(set(names))

    def fresh(*argv):
        # the modules one run in a fresh process adds to the bare interpreter
        run_one = ("import sys; from compsigns import cli; assert cli.main(sys.argv[2:]) == 0; "
                   "print('\\n' + ' '.join(sorted(set(sys.modules) - set(sys.argv[1].split()))))")
        proc = subprocess.run([sys.executable, "-c", run_one, bare, *argv],
                              env=env, capture_output=True, text=True, check=True)
        return set(proc.stdout.splitlines()[-1].split())

    # start-up loads the parser and nothing a subcommand runs
    assert fresh("--version") == {"__future__", "compsigns", "compsigns._backend",
                                  "compsigns.cli", "compsigns.sets"}
    assert not fresh("counts", "--help") - fresh("--version")
    for argv in (("nonperiodic", "-A", "{2,3}"), ("enumerate", "-N", "8", "--horizon", "32")):
        run_new = fresh(*argv)
        assert not {"compsigns.compositions", "compsigns.sums"} & run_new, argv
        new.setdefault(argv[0], []).append(run_new)
    for command, sets in new.items():
        assert not {"argparse", "gettext"} & set().union(*sets), command
    branch_only = {"dataclasses", "inspect", "traceback", "hashlib", "compsigns.nonperiodic"}
    for command in ("counts", "signs", "verify"):
        assert not new[command][0] & branch_only, command
    assert "compsigns.explorer" not in new["counts"][0]
    assert "json" not in new["counts"][0]
    assert "compsigns.explorer" in new["verify"][0]
    # verify runs before the JSON-printing signs --detect: explorer loads
    # json only for the scan's enumerate.json
    assert "json" not in new["verify"][0]
    # the lazily imported --out path still writes the file and its manifest
    csv = (out_dir / "counts.csv").read_bytes()
    assert csv == b"n,c_A(n)\n0,1\n1,1\n2,2\n3,3\n4,5\n5,8\n"
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["outputs"] == [{"path": "counts.csv", "bytes": len(csv),
                                    "sha256": hashlib.sha256(csv).hexdigest()}]
    assert manifest["command"] == "counts" and manifest["wall_time_s"] > 0


def test_precision_flag(capsys):
    # the working precision is fixed: the flag that once set it is refused
    # like any unknown argument
    code, out = run(capsys, "nonperiodic", "-A", "{2,3}", "--precision", "64")
    assert code == 3
    assert out.out == ""
    assert out.err == "usage error: unrecognized arguments: --precision 64\n"


def _setting_flag(line):
    """``--key=value`` for a certifier setting written as ``key=value``."""
    key, _, value = line.partition("=")
    return f"--{key.replace('_', '-')}={value}"


@pytest.mark.parametrize("line", [
    "residual_tol=2^-128",
    "gap_tol=2^-20",
    "unity_tol=2^-20",
    "exact_max_degree=12",
    "max_iterations=256",
])
def test_config_refuses_retired_keys(capsys, line):
    # even the value each key used to default to: a setting that was once
    # settable must not run under a meaning it was not written for
    flag = _setting_flag(line)
    code, out = run(capsys, "nonperiodic", "-A", "{2,3}", flag)
    assert code == 3
    assert out.out == ""
    assert out.err == f"usage error: unrecognized arguments: {flag}\n"


@pytest.mark.parametrize("line", ["precision=8", "precision=4", "unity_tol=0"])
def test_configs_that_certified_a_period_exit_3(capsys, line):
    # each once certified 1/(1 + x + x^2), whose signs have period 3
    code, out = run(capsys, "nonperiodic", "-p", "1,1,1", _setting_flag(line))
    assert code == 3
    assert out.out == ""


def test_config_flag_is_refused(tmp_path, capsys):
    # the key=value file is gone: an old command line naming one exits 3,
    # even when the file holds a valid precision
    cfg = tmp_path / "c.cfg"
    cfg.write_text("precision=192\n")
    code, out = run(capsys, "nonperiodic", "-A", "{2,3}", "--config", str(cfg))
    assert code == 3
    assert out.out == ""
    assert out.err == f"usage error: unrecognized arguments: --config {cfg}\n"


@pytest.mark.parametrize("line", [
    "precision=0",
    "precision=52",
    "residual_tol=-1",
    "gap_tol=-1",
    "unity_tol=-1",
    "exact_max_degree=-1",
    "max_iterations=-1",
    "precision=2^8",
    "gap_tol=2^x",
])
def test_config_value_out_of_range_exits_3(capsys, line):
    code, out = run(capsys, "nonperiodic", "-A", "{2,3}", _setting_flag(line))
    assert code == 3
    assert out.out == ""
    assert line.partition("=")[0].replace("_", "-") in out.err


# sha256 of the default report bytes, the first three recorded before the
# certifier's settings were cut to precision and --exact, the last two
# before bigfloat was rebuilt on one rounding function: they must not move
@pytest.mark.parametrize("argv, code, digest", [
    (("-A", "{2,3}", "--exact"), 0,
     "2ed072cf23675efda340087d66e25dd41075b69ede880cafd4db506eaa7a4ee9"),
    (("-p", "1,-1,-1"), 2,
     "115c14fbb289829b92120946e077fddf26319d370d32a4d4bb3f3307a1909768"),
    (("-A", "{2,3,7,60}"), 0,
     "5f553d1c3fe5f7526190b76305e5b0d9d52dbb2807c36957d5603c7baff49391"),
    # no other cluster, so relative_gap prints as +inf
    (("-p", "1,1,2"), 0,
     "d1f01a1b81b5e6ae59c03cf7c4640516931ae8561274476485ef9327e2e2aeb3"),
    # the double pass leaves a cluster unsettled; the 256-bit pass starts
    # from where it ended and prints every root
    (("-p", "1,0,0,0,0,0,0,0,0,0,0,0,-50,20,-2"), 2,
     "250d662fd0da4baa47f9eebefddc2080e1e1059fa4e9e09ab682e8f534d131f3"),
], ids=["{2,3}-exact", "1,-1,-1", "{2,3,7,60}", "1,1,2", "cluster"])
def test_default_reports_keep_their_bytes(capsys, argv, code, digest):
    got, out = run(capsys, "nonperiodic", *argv)
    assert got == code
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


# sha256 of the stdout of the two subcommands that run first_violation,
# recorded before its window was zero-padded into one loop
@pytest.mark.parametrize("argv, digest", [
    (("enumerate", "-N", "12", "--horizon", "48"),
     "9174e97d1ef437aba501e78ef2c9278410347c5779efcf745ac807859d60bee3"),
    (("experiment", "--problem44", "-m", "4", "--horizon", "300"),
     "3dede0ceb8b2b79d2da478cba275dcf633bdbf1a8e35b32fee530cefb3617669"),
], ids=["enumerate", "problem44"])
def test_scan_reports_keep_their_bytes(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


# sha256 of the stdout of the JSON outputs that Record.to_json or a dict
# body prints, recorded while each handler still built its JSON by hand
@pytest.mark.parametrize("argv, digest", [
    (("signs", "-A", "{1,2}", "-k", "0", "-N", "60", "--normalized", "--detect", "5,10"),
     "2894ee0b944a481e1235474dfb361abca8fed11f8a1472755aa817418164e264"),
    (("signs", "-A", "{2,3}", "-k", "0", "-N", "200", "--normalized", "--detect", "20,60"),
     "0f85308cbb16cc8a1aabe47b1daf0c959851b6c5fbc1282f5824ebdd08618176"),
    (("construct", "--thm36", "-B", "{1,3,7}"),
     "c8f466e056732394238320657291569877e1d15ad0d50cd09f2f8a8b087a162e"),
    # raw sign words, the signs of S itself without --normalized, recorded
    # while a sign word was still a record of its own
    (("signs", "-A", "{2,3}", "-k", "1", "-N", "80"),
     "b4ded267716468733765d9aa6eaf44852e873a0925deb3b97b748e643b3cba0f"),
    (("signs", "-A", "{1,2,5}", "-k", "2", "-N", "120", "--detect", "10,30"),
     "f49f7fd03b42207264effa9c497bc284b33a08842cb680649e8cea78e56e3c94"),
], ids=["consistent", "no-period", "construct", "raw-word", "raw-no-period"])
def test_json_reports_keep_their_bytes(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


def test_coefficient_too_large_for_a_double(capsys):
    big = str(10**400)
    code, out = run(capsys, "nonperiodic", "-p", f"1,{big},1")
    assert code in (0, 2)
    assert json.loads(out.out)["poly"] == ["1", big, "1"]


def test_integers_past_the_digit_limit_print_and_parse(capsys):
    # Python 3.11 converts an int of more than 4300 digits to or from text
    # only once the limit is lifted; c_A(14500) for A = 1..16 has 4365
    code, out = run(capsys, "counts", "-A", "1..16", "-N", "14500")
    assert code == 0, out.err
    want = [1]
    for n in range(1, 14501):
        want.append(sum(want[max(0, n - 16):]))
    assert len(str(want[-1])) > 4300
    assert out.out.rstrip("\n").rpartition("\n")[2] == f"14500,{want[-1]}"
    # -p reads such an integer instead of calling it malformed
    coeff = "1" + "0" * 4400
    code, out = run(capsys, "nonperiodic", "-p", f"1,1,{coeff}")
    assert code == 2, out.err
    assert json.loads(out.out)["poly"] == ["1", "1", coeff]


def test_closed_stdout_ends_quietly():
    # the reader leaves after one line, as under `| head -1`
    src = Path(compsigns.__file__).resolve().parent.parent
    with subprocess.Popen(
            [sys.executable, "-m", "compsigns.cli", "enumerate", "-N", "12",
             "--horizon", "60"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""
    # the reader is gone before the child starts, so the write of --version
    # or --help fails whatever the timing.  Unbuffered, the write itself
    # fails, not the flush, and must still end in 141
    for flag in ("--version", "--help"):
        for unbuffered in (False, True):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = _cli_process("-m", "compsigns.cli", flag, stdout=write_end,
                                    unbuffered=unbuffered)
            finally:
                os.close(write_end)
            assert (flag, unbuffered, proc.returncode, proc.stderr) == \
                (flag, unbuffered, 141, b"")


def test_enumerate_output(capsys):
    code, out = run(capsys, "enumerate", "-N", "5", "--horizon", "40")
    assert code == 0
    lines = out.out.split("\n")
    cut = lines.index("}") + 1  # top-level closing brace ends the JSON part
    blob = json.loads("\n".join(lines[:cut]))
    csv_text = "\n".join(lines[cut:])
    assert blob["n"] == 5
    assert blob["verdicts"][3]["first_violation"] == 3
    assert "mask,k0_ok,first_violation" in csv_text
    assert "3,false,3" in csv_text
    code, out = run(capsys, "enumerate", "-N", "8", "--horizon", "32", "--jobs", "0")
    assert code == 3
    assert "jobs" in out.err


def test_enumerate_stdout_bytes(capsys):
    # all of stdout rebuilt from the brute-force oracle: the JSON document,
    # then the CSV, byte for byte as a streaming writer would have to print
    n, horizon = 5, 20
    verdicts, rows = [], ["mask,k0_ok,first_violation"]
    for mask in range(1 << n):
        members = [i + 1 for i in range(n) if mask >> i & 1]
        fv = next((m for m in range(horizon + 1)
                   if (-1) ** m * alt_moment_sum(members, 0, m) < 0), None)
        verdicts.append({"mask": mask, "members": members,
                         "k0_ok": fv is None, "first_violation": fv})
        rows.append(f"{mask},true," if fv is None else f"{mask},false,{fv}")
    blob = {
        "schema": "compsigns/1",
        "n": n,
        "horizon": horizon,
        "count": sum(v["k0_ok"] for v in verdicts),
        "note": ("horizon-limited: non-negativity beyond the scanned range "
                 "is unverified"),
        "verdicts": verdicts,
    }
    want = (json.dumps(blob, indent=2, sort_keys=True) + "\n"
            + "\n".join(rows) + "\n")
    code, out = run(capsys, "enumerate", "-N", str(n), "--horizon", str(horizon))
    assert code == 0
    assert out.out == want
    assert 0 < blob["count"] < 1 << n


def _enumerate_texts(n, horizon):
    """enumerate.json and verdicts.csv as json.dumps and a plain loop print
    them, for the first violations the scan finds."""
    res = enumerate_F(n, horizon)
    verdicts = [{"mask": mask, "members": [i + 1 for i in range(n) if mask >> i & 1],
                 "k0_ok": fv is None, "first_violation": fv}
                for mask, fv in enumerate(res.first_violations)]
    blob = {"schema": "compsigns/1", "n": n, "horizon": horizon,
            "count": sum(v["k0_ok"] for v in verdicts), "note": res.note,
            "verdicts": verdicts}
    rows = ["mask,k0_ok,first_violation"]
    rows += [f"{mask},true," if fv is None else f"{mask},false,{fv}"
             for mask, fv in enumerate(res.first_violations)]
    return json.dumps(blob, indent=2, sort_keys=True) + "\n", "\n".join(rows) + "\n"


@pytest.mark.parametrize("n,horizon,jobs", [(0, 8, 1), (1, 8, 1), (2, 12, 1),
                                            (7, 40, 1), (9, 60, 2)])
def test_enumerate_stdout_is_json_dumps_then_csv(capsys, n, horizon, jobs):
    json_text, csv_text = _enumerate_texts(n, horizon)
    code, out = run(capsys, "enumerate", "-N", str(n), "--horizon", str(horizon),
                    "--jobs", str(jobs))
    assert code == 0
    assert out.out == json_text + csv_text


def test_enumerate_out_files_and_manifest_follow_stdout(tmp_path, capsys):
    out_dir = tmp_path / "scan"
    code, out = run(capsys, "enumerate", "-N", "7", "--horizon", "40",
                    "--out", str(out_dir))
    assert code == 0
    json_text, csv_text = _enumerate_texts(7, 40)
    assert out.out == json_text + csv_text
    files = {name: (out_dir / name).read_bytes()
             for name in ("enumerate.json", "verdicts.csv")}
    assert files["enumerate.json"] == out.out[:len(json_text)].encode()
    assert files["verdicts.csv"] == out.out[len(json_text):].encode()
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["outputs"] == [
        {"path": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        for name, data in files.items()]


def test_out_dir_that_cannot_be_made_exits_3(tmp_path, capsys):
    # DIR is made before anything is printed, and a failure to make it is
    # a usage error, not a counterexample
    blocker = tmp_path / "afile"
    blocker.write_text("")
    code, out = run(capsys, "counts", "-A", "{1,2}", "-N", "5",
                    "--out", str(blocker / "x"))
    assert code == 3
    assert out.out == ""
    assert out.err.startswith("error: ")


def test_exception_while_emitting_exits_4(tmp_path, capsys, monkeypatch):
    def broken(result, write):
        write("mask,k0_ok,first_violation\n")
        raise ZeroDivisionError("broken on purpose")

    monkeypatch.setattr(explorer, "verdicts_csv", broken)
    code, out = run(capsys, "enumerate", "-N", "3", "--horizon", "12",
                    "--out", str(tmp_path / "d"))
    assert code == 4
    assert "ZeroDivisionError" in out.err and "Traceback" in out.err
    assert not (tmp_path / "d" / "run_manifest.json").exists()


def test_construct_and_rejection(capsys):
    code, out = run(capsys, "construct", "--thm36", "-B", "{1,3,5}")
    assert code == 0
    assert json.loads(out.out)["set"] == [1, 3, 4, 5, 6, 8, 9]
    code, out = run(capsys, "construct", "--thm36", "-B", "{1,3,4}")
    assert code == 3
    assert "even" in out.err


def test_experiment(capsys):
    code, out = run(capsys, "experiment", "--problem44", "-m", "4",
                    "--horizon", "400")
    assert code == 0
    blob = json.loads(out.out)
    assert blob["passed"] is True and blob["first_violation"] is None
    code, out = run(capsys, "experiment", "--problem44", "-m", "3")
    assert code == 3


# one row per guard that command-line input reaches past the parser, with
# its stderr: each exits 3 and prints nothing on stdout
_REFUSED = [
    ("counts -A {1,2} -N -1", "error: N must be non-negative"),
    ("polys -A {1,2} -N -1", "error: N must be non-negative"),
    ("sk -A {1,2} -K -1 -N 5", "error: K must be non-negative"),
    ("sk -A {1,2} -K 1 -N -5", "error: N must be non-negative"),
    ("signs -A {1,2} -k -1 -N 10", "error: k must be non-negative"),
    ("enumerate -N 23 --horizon 100", "error: n=23 exceeds the 2^22-subset budget"),
    ("enumerate -N 5 --horizon 10", "error: horizon 10 too short; need >= 20"),
    ("enumerate -N -1 --horizon 10", "error: N must be non-negative"),
    ("enumerate -N 5 --horizon 30 --jobs 0", "error: jobs must be >= 1, got 0"),
    ("signs -A {1,2} -k 0 -N 30 --detect 100,100",
     "error: word of length 31 too short for max_pre=100, max_t=100 "
     "(need max_pre + 2*max_t <= length)"),
    ("signs -A {1,2} -k 0 -N 30 --detect 1,0", "error: need max_pre >= 0 and max_t >= 1"),
    ("verify --suite prop33 -m 0", "error: m must be >= 1"),
    ("verify --suite thm34 -E {2} -N 0", "error: N must be >= 1"),
    ("verify --suite union -A {1,3} -B {2,4} -N -1", "error: N must be >= 1"),
    ("verify --suite section2 -A {1,2} -N -1", "error: N must be >= 1"),
    # an empty range of n would pass every check in it
    ("verify --suite thm36 -B {1,3} -N 0", "error: N must be >= 1"),
    ("verify --suite prop33 -m 4 -N 0", "error: N must be >= 1"),
    ("verify --suite union -A {1,3} -B {2,4} -N 0", "error: N must be >= 1"),
    ("verify --suite section2 -A {1,2} -N 0", "error: N must be >= 1"),
    ("experiment --problem44 -m 5", "error: need even m > 3"),
    ("experiment --problem44 -m 4 --horizon -5", "error: horizon must be >= 1"),
    ("experiment --problem44 -m 4 --horizon 0", "error: horizon must be >= 1"),
    # an option the suite does not read would be ignored
    ("verify --suite section2 -A {1,2} -m 3", "error: verify --suite section2 does not read -m"),
    ("verify --suite prop33 -m 3 -N 5 -A {1}", "error: verify --suite prop33 does not read -A"),
    ("verify --suite thm34 -E {2} -B {1,3}", "error: verify --suite thm34 does not read -B"),
    ("verify --suite thm36 -B {1,3} -E {2}", "error: verify --suite thm36 does not read -E"),
    ("verify --suite union -A {1,3} -B {2,4} -m 4",
     "error: verify --suite union does not read -m"),
    # a suite without its set or m; an empty set option counts as missing
    ("verify --suite section2 -A ''", "error: verify --suite section2 needs -A"),
    ("verify --suite prop33", "error: verify --suite prop33 needs -m"),
    ("verify --suite thm34 -E ''", "error: verify --suite thm34 needs -E"),
    ("verify --suite thm36", "error: verify --suite thm36 needs -B"),
    ("verify --suite union -A {1,3}", "error: verify --suite union needs -A and -B"),
    ("verify --suite union -A '' -B {2,4}", "error: verify --suite union needs -A and -B"),
    ("nonperiodic -p 1,1", "error: need degree >= 2"),
    ("nonperiodic -p 2,1,1", "error: need constant term 1"),
    ("nonperiodic -A {2,3} --precision 52",
     "usage error: unrecognized arguments: --precision 52"),
    ("nonperiodic -A 'N+\\{2,4}@4'", "error: denominator polynomial needs a finite part set"),
    ("nonperiodic -A {2,3} --config x", "usage error: unrecognized arguments: --config x"),
    # no subcommand takes a value after "--"
    ("counts -A {1,2} -N 5 -- x", "usage error: unrecognized arguments: -- x"),
]


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 3
    assert run(capsys, "sk", "-A", "{1,2}")[0] == 3
    assert run(capsys, "signs", "-A", "{1,2}", "-k", "0", "-N", "30",
               "--detect", "nope")[0] == 3
    for line, message in _REFUSED:
        code, out = run(capsys, *shlex.split(line))
        assert (code, out.out, out.err) == (3, "", message + "\n"), line


def _failed_identities(spec, upto):
    results = dict.fromkeys(compositions.IDENTITY_NAMES)
    results["delta_q"] = compositions.IdentityFailure("delta_q", 3, 1)
    return compositions.IdentityReport(results)


# one row per line that reports a failed check: a library check patched to
# fail, and the line its handler must print
_FAILED_CHECKS = {
    "section2": (
        compositions, "verify_identities", _failed_identities,
        "verify --suite section2 -A {1,2,5} -N 60", "delta_q: FAIL at n=3, coefficient 1"),
    "prop33": (
        signs, "check_range_set_pattern",
        lambda m, upto: signs.PatternCheck(m, upto, False, 5, (1,)),
        "verify --suite prop33 -m 4 -N 200", "range set 1..4 n <= 200: FAIL first mismatch n=5"),
    "thm34-identity": (
        explorer, "verify_cofinite_even_complement",
        lambda E, upto: explorer.CofiniteCheck(E, upto, 3, 4, None),
        "verify --suite thm34 -E {2,6} -N 200", "identity: FAIL at n=4"),
    "thm34-non-negativity": (
        explorer, "verify_cofinite_even_complement",
        lambda E, upto: explorer.CofiniteCheck(E, upto, 3, None, (1, 7)),
        "verify --suite thm34 -E {2,6} -N 200", "non-negativity: FAIL at (k=1, n=7)"),
    "thm36": (
        explorer, "verify_distinct_subset_sums",
        lambda B, upto: explorer.SubsetSumCheck(B, B, upto, 9),
        "verify --suite thm36 -B {1,3,5} -N 300", "partition identity n <= 300: FAIL at n=9"),
    "union": (
        explorer, "union_relation_check", lambda A, B, upto: False,
        "verify --suite union -A {1,3} -B {2,4} -N 50", "union relation n <= 50: FAIL"),
    "experiment": (
        explorer, "repunit_extension_experiment",
        lambda m, horizon: explorer.RepunitProbe(m, horizon, (1, 4, 5), 7),
        "experiment --problem44 -m 4 --horizon 40", '  "passed": false,'),
}


@pytest.mark.parametrize("module, name, fake, line, want", list(_FAILED_CHECKS.values()),
                         ids=list(_FAILED_CHECKS))
def test_failed_check_exits_1(capsys, monkeypatch, module, name, fake, line, want):
    monkeypatch.setattr(module, name, fake)
    code, out = run(capsys, *shlex.split(line))
    assert (code, out.err) == (1, "")
    assert want in out.out.splitlines()


# every subcommand's options but -h: adding or removing one edits this table
_OPTIONS = {
    "counts": "-A -N --out",
    "polys": "-A -N --out",
    "sk": "-A -K -N --route --out",
    "signs": "-A -k -N --normalized --detect --out",
    "verify": "--suite -A -B -E -m -N --out",
    "nonperiodic": "-A -p --exact --out",
    "enumerate": "-N --horizon --jobs --out",
    "construct": "--thm36 -B --out",
    "experiment": "--problem44 -m --horizon --out",
}


def test_subcommand_options_are_pinned():
    got = {name: " ".join(options) for name, (_, options) in cli._COMMANDS.items()}
    assert got == _OPTIONS
    assert list(cli._COMMANDS) == list(cli._HANDLERS)


def test_route_choices_are_the_routes():
    # the table spells the --route choices out, so that the parser needs
    # no import of sums
    choices = cli._COMMANDS["sk"][1]["--route"]["choices"]
    assert choices == sorted(sums.ROUTES) + ["all"]


# -- the option-table parser against argparse --------------------------------


class _OracleRefused(Exception):
    pass


class _OracleExit(Exception):
    pass


class _Oracle(argparse.ArgumentParser):
    """argparse, built from the same table: the reference the CLI's own
    parser must agree with.  It raises instead of exiting and keeps what
    --help and --version would print."""

    def error(self, message):
        raise _OracleRefused(message)

    def _print_message(self, message, file=None):
        self.printed = message

    def exit(self, status=0, message=None):
        raise _OracleExit(self.printed)


def _oracle():
    parser = _Oracle(prog="compsigns")
    parser.add_argument("--version", action="version", version=compsigns.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
    return parser


def _printed(text):
    return "version" if text == compsigns.__version__ + "\n" else "help"


def _oracle_reads(parser, argv):
    try:
        return "parsed", vars(parser.parse_args(argv))
    except _OracleRefused as exc:
        return "refused", str(exc)
    except _OracleExit as exc:
        return "printed", _printed(str(exc))


def _cli_reads(argv):
    try:
        got = cli._parse(argv)
    except cli._UsageError as exc:
        return "refused", str(exc)
    if isinstance(got, str):
        return "printed", _printed(got)
    return "parsed", vars(got)


# argparse's messages for these two refusals are pinned by tests; the
# others are compared by what they name, the text before the first colon,
# since argparse's wording of the rest varies between Python versions, as
# does its handling of "--" between patch releases of 3.12 and 3.13
_PINNED_MESSAGES = ("unrecognized arguments: ", "the following arguments are required: ")

# spellings whose reading argparse gives the same on Python 3.10 to 3.13
_SPELLINGS = [
    "counts -A {1,2} -N5",
    "counts -A {1,2} -N=5",
    "counts -A{1,2} -N 5",
    "enumerate -N 5 --horizon=20",
    "enumerate -N 5 --hor 20",
    "enumerate -N 5 --horizon 20 --j 1",
    "signs -A {2,3} -k 0 -N 9 --norm",
    "counts -A {1,2} -N -1",
    "sk -A {1,2} -K 1 -N 5 --route=q",
    "sk -A {1,2} -K 1 -N 5 --rou conv",
    "nonperiodic -A {2,3} --exact=1",
    "nonperiodic -A {2,3} --ex",
    "counts -A",
    "counts -N 5 -A",
    "counts -A {1,2} -- -N 5",
    "counts -A {1,2} -N 5 --bogus",
    "counts -A {1,2} -N 5 --bogus 3",
    "counts -A {1,2} -N 5 -x",
    "counts -A {1,2} -N 5 extra",
    "counts -A {1,2} -N 5 -7",
    "--bogus counts -A {1,2} -N 5",
    "counts -A {1,2}",
    "construct -B {1,3}",
    "counts -A {1,2} -N x",
    "counts -A {1,2} -N ''",
    "sk -A {1,2} -K 1 -N 5 --route x",
    "verify --suite bogus",
    "verify",
    "enumerate -N 5 --h 20",
    "enumerate -N 5 --horizon 20 --o",
    "counts -A {1,2} -N 5 -N 6",
    "--version",
    "--version extra",
    "--vers",
    "--help",
    "-h",
    "counts --help",
    "counts -A {1,2} -N 5 -h",
    "enumerate --he",
    "counts -hN5",
    "counts -A {1,2} -N 5 -hx",
    "-hh",
    "",
    "--",
    "--bogus --",
    "bogus",
    "-1",
    # every token is read before any is taken: the ambiguous one is
    # refused before -h prints
    "-h counts --=5",
]


def _parser_corpus():
    """Every command line the parsers are compared on."""
    from test_bench_argv import jobs

    lines = [shlex.split(line) for line in _SPELLINGS]
    seeds = (1, 7, 2101)
    for workload in jobs.WORKLOADS:
        if workload == "certify" and importlib.util.find_spec("numpy") is None:
            continue  # its set picker calls numpy
        lines += [job["argv"] for seed in seeds for job in jobs.job_list(workload, seed)]
        lines += jobs.WARMUP[workload]
    lines += [shlex.split(line.partition("#")[0])[1:] for line in _readme_cli_lines()]
    lines += [shlex.split(line) for line, _ in _REFUSED]
    lines += [shlex.split(row[3]) for row in _FAILED_CHECKS.values()]
    return lines


def test_parser_reads_every_line_as_argparse_does():
    oracle = _oracle()
    corpus = _parser_corpus()
    assert len(corpus) > 100
    for argv in corpus:
        want, got = _oracle_reads(oracle, argv), _cli_reads(argv)
        if want[0] == "refused" and ("--" in argv or not want[1].startswith(_PINNED_MESSAGES)):
            want, got = (want[0], want[1].partition(":")[0]), (got[0], got[1].partition(":")[0])
        assert got == want, argv


def _raise_value_error(*args, **kwargs):
    raise ValueError("injected")


# one row per subcommand: a library function its handler's core calls
@pytest.mark.parametrize("module, name, line", [
    (compositions, "comp_counts", "counts -A {1,2} -N 5"),
    (compositions, "comp_poly_rows", "polys -A {1,2} -N 5"),
    (sums, "sk_rows", "sk -A {1,2} -K 1 -N 5"),
    (sums, "comp_polys", "sk -A {1,2} -K 1 -N 5 --route direct"),
    (signs, "detect_period", "signs -A {1,2} -k 0 -N 30 --detect 5,8"),
    (compositions, "comp_counts", "verify --suite thm34 -E {2,6} -N 40"),
    (nonperiodic, "roots_numeric", "nonperiodic -A {2,3}"),
    (explorer, "_sweep", "enumerate -N 5 --horizon 20"),
    (explorer, "_subset_sums", "construct --thm36 -B {1,3,5}"),
    (explorer, "first_violation", "experiment --problem44 -m 4 --horizon 40"),
], ids=["counts", "polys", "sk", "sk-direct", "signs", "verify", "nonperiodic",
        "enumerate", "construct", "experiment"])
def test_value_error_inside_a_subcommand_exits_4(capsys, monkeypatch, module, name, line):
    monkeypatch.setattr(module, name, _raise_value_error)
    code, out = run(capsys, *shlex.split(line))
    assert code == 4
    assert out.out == ""
    assert "Traceback" in out.err and "ValueError: injected" in out.err


def test_zero_gcd_in_yun_exits_4(capsys, monkeypatch):
    # a zero gcd breaks Yun's decomposition with a ValueError from deep in
    # poly: a bug, not refused input
    monkeypatch.setattr(poly, "poly_gcd", lambda a, b: IntPoly(()))
    code, out = run(capsys, "nonperiodic", "-p", "1,2,1")
    assert code == 4
    assert out.out == ""
    assert "Traceback" in out.err
    assert "ValueError: zero polynomial has no leading coefficient" in out.err


def _cli_process(*args, path="", stdout=subprocess.PIPE, unbuffered=False):
    """Run `python ARGS` as its own process, compsigns' sources (and `path`)
    importable, and with stdout block-buffered, so that output nobody
    flushes is lost, unless ``unbuffered`` sets PYTHONUNBUFFERED."""
    src = str(Path(compsigns.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


# a process ends through run(): one row per way out of main, each of which
# must leave with the exit code, stdout bytes and stderr that main gives
@pytest.mark.parametrize("line, code", [
    ('counts -A "{1,2,3}" -N 4', 0),
    ('nonperiodic -A "{2,3}" --exact', 0),
    ("nonperiodic -p 1,-1,-1", 2),
    ("enumerate -N 6 --horizon 24", 0),
    ('signs -A "{2,3}" -k -1 -N 10', 3),
    ('counts -A "{1,2}" -N 4 --bogus', 3),
    ("--version", 0),
    ("--help", 0),
], ids=["counts", "nonperiodic-exact", "inconclusive", "enumerate", "spec-error",
        "unknown-flag", "version", "help"])
def test_process_exit_matches_main(capsys, monkeypatch, line, code):
    argv = shlex.split(line)
    got = main(argv)
    out = capsys.readouterr()
    assert got == code
    if line == "--version":
        assert out.out == "0.1.0\n"
    proc = _cli_process("-m", "compsigns.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (code, out.out.encode(),
                                                                    out.err)


_PATCHED_RUNS = {row: (module, name, fake, line)
                 for row, (module, name, fake, line, _) in _FAILED_CHECKS.items()}
_PATCHED_RUNS["zero-gcd"] = (poly, "poly_gcd", lambda a, b: IntPoly(()), "nonperiodic -p 1,2,1")

_RUN_PATCHED = """
import shlex, sys
import test_cli
from compsigns import cli
module, name, fake, line = test_cli._PATCHED_RUNS[sys.argv[1]]
setattr(module, name, fake)
sys.argv[1:] = shlex.split(line)
cli.run()
"""


# exit 1 (the failed checks above) and exit 4 (a zero gcd in Yun's
# decomposition) through run(), in a process whose library is patched
@pytest.mark.parametrize("row", list(_PATCHED_RUNS))
def test_patched_process_exit_matches_main(capsys, monkeypatch, row):
    module, name, fake, line = _PATCHED_RUNS[row]
    monkeypatch.setattr(module, name, fake)
    code, out = run(capsys, *shlex.split(line))
    assert code == (4 if row == "zero-gcd" else 1)
    proc = _cli_process("-c", _RUN_PATCHED, row, path=str(Path(__file__).resolve().parent))
    assert (proc.returncode, proc.stdout) == (code, out.out.encode())
    err = proc.stderr.decode()
    if code == 1:
        assert err == out.err == ""
    else:  # the frames' file paths may differ, the exception may not
        assert "Traceback" in err
        assert err.splitlines()[-1] == out.err.splitlines()[-1] == (
            "ValueError: zero polynomial has no leading coefficient")


def test_process_out_files_are_complete_at_exit(tmp_path):
    # os._exit flushes only stdout and stderr: every file --out writes must
    # be whole once the process is gone
    out_dir = tmp_path / "run"
    proc = _cli_process("-m", "compsigns.cli", "counts", "-A", "{1,2,3}", "-N", "300",
                        "--out", str(out_dir))
    assert (proc.returncode, proc.stderr) == (0, b"")
    csv = (out_dir / "counts.csv").read_bytes()
    assert csv == proc.stdout
    assert csv.splitlines()[-1].startswith(b"300,")
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["outputs"] == [{"path": "counts.csv", "bytes": len(csv),
                                    "sha256": hashlib.sha256(csv).hexdigest()}]
    assert manifest["argv"][-2:] == ["--out", str(out_dir)]


def test_no_module_leaves_work_for_interpreter_exit():
    # run() ends the process with os._exit, which skips atexit handlers,
    # weakref finalizers and tempfile's cleanup: no module may rely on them
    package = Path(compsigns.__file__).resolve().parent
    skipped = {"atexit", "weakref", "tempfile"}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not {n.partition(".")[0] for n in names} & skipped, (path.name, node.lineno)


def _readme_cli_lines():
    """The command lines of the README's CLI block, comments included."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("compsigns ")]


def test_readme_cli_examples(capsys):
    # every command of the README's CLI block parses and gives what its
    # comment states: "last line: X" of stdout, or "exit N"; else exit 0
    commands = _readme_cli_lines()
    assert len(commands) >= 10
    for line in commands:
        command, _, comment = line.partition("#")
        code, out = run(capsys, *shlex.split(command)[1:])
        want = 0
        if "exit " in comment:
            want = int(comment.split("exit ", 1)[1].split()[0])
        assert code == want, (line, out.err)
        if "last line: " in comment:
            assert out.out.splitlines()[-1] == comment.split("last line: ", 1)[1].strip(), line


def test_help_exits_zero(capsys):
    code, top = run(capsys, "-h")
    assert (code, top.err) == (0, "")
    assert top.out.startswith("usage: compsigns ")
    for name, (text, options) in cli._COMMANDS.items():
        assert f"  {name}" in top.out and text in top.out
        code, out = run(capsys, name, "--help")
        assert (code, out.err) == (0, "")
        assert out.out.startswith(f"usage: compsigns {name} ")
        assert all(flag in out.out for flag in options)


def test_out_dir_writes_manifest(tmp_path, capsys):
    out_dir = tmp_path / "runA"
    code, out = run(capsys, "signs", "-A", "{2,3}", "-k", "0", "-N", "60",
                    "--normalized", "--detect", "10,20", "--out", str(out_dir))
    assert code == 0
    word = (out_dir / "word.txt").read_bytes()
    finding = (out_dir / "finding.json").read_bytes()
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    digests = {e["path"]: e["sha256"] for e in manifest["outputs"]}
    assert digests["word.txt"] == hashlib.sha256(word).hexdigest()
    assert digests["finding.json"] == hashlib.sha256(finding).hexdigest()
    assert manifest["command"] == "signs"
    assert manifest["params"]["detect"] == "10,20"
    assert "--out" in manifest["argv"]


def test_out_dir_determinism(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _ = run(capsys, "enumerate", "-N", "6", "--horizon", "48",
                      "--out", str(d))
        assert code == 0
        capsys.readouterr()
    for name in ("enumerate.json", "verdicts.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_stdout_matches_written_file(tmp_path, capsys):
    out_dir = tmp_path / "c"
    code, out = run(capsys, "counts", "-A", "{1,2,3}", "-N", "10",
                    "--out", str(out_dir))
    assert code == 0
    assert out.out == (out_dir / "counts.csv").read_text()
