"""Tests for the command-line front end: outputs, exit codes, manifests."""

import hashlib
import json
from dataclasses import replace

import pytest

from compsigns import InternalError, nonperiodic, sums
from compsigns.cli import load_config, main
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
    results = []
    for route in ("direct", "fast", "q", "conv", "all"):
        code, out = run(capsys, "sk", "-A", "{1,4}", "-K", "3", "-N", "25",
                        "--route", route)
        assert code == 0
        results.append(out.out)
    assert len(set(results)) == 1


def test_sk_route_disagreement_exits_1(capsys, monkeypatch):
    def tampered(spec, k_max, n_max):
        grid = sk_fast(spec, k_max, n_max)
        rows = [list(r) for r in grid.values]
        rows[0][2] += 1
        return SkGrid(grid.set, grid.K, grid.N, tuple(tuple(r) for r in rows))

    monkeypatch.setitem(sums.ROUTES, "fast", tampered)
    code, out = run(capsys, "sk", "-A", "{1,2}", "-K", "1", "-N", "6",
                    "--route", "all")
    assert code == 1
    assert "routes disagree at k=0 n=2" in out.out


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


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("precision=192\ngap_tol=2^-12\n# note\nunity_tol=1e-6\n")
    parsed = load_config(cfg)
    assert parsed.precision == 192
    assert parsed.gap_tol == 2.0**-12
    assert parsed.unity_tol == 1e-6
    assert parsed.residual_tol == 2.0**-128  # untouched default
    code, out = run(capsys, "nonperiodic", "-A", "{2,3}", "--config", str(cfg))
    assert code == 0
    assert json.loads(out.out)["config"]["precision"] == 192


def test_config_rejects_bad_lines(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n")
    code, out = run(capsys, "nonperiodic", "-A", "{2,3}", "--config", str(bad))
    assert code == 3
    bad.write_text("no_such_key=1\n")
    code, out = run(capsys, "nonperiodic", "-A", "{2,3}", "--config", str(bad))
    assert code == 3


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


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 3
    assert run(capsys, "sk", "-A", "{1,2}")[0] == 3
    assert run(capsys, "signs", "-A", "{1,2}", "-k", "0", "-N", "30",
               "--detect", "nope")[0] == 3


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0


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
