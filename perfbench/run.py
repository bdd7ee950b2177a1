"""End-to-end benchmark of the compsigns CLI.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --list --seed 1
    python3 perfbench/selftest.py

The program measured is the ``src/compsigns`` next to this directory, run
from source.  One client works through a seeded job list in a closed
loop: each job is a fresh ``python -m compsigns.cli`` process, started
only after the previous one has exited.  The list is run again while the
next pass still fits in ``--seconds`` (at least one pass is made).

Workloads (jobs.py has the exact mix and why each slot is there):

* identities: section2 identity suites, cross-checked S_k grids and a few
  quick verification suites; Fraction code and the eval-mode kernels,
  tiny outputs.
* certify: the non-periodicity certifier on part-sets (three with the
  exact tier) and on cyclotomic products; mpmath and the exact tier.
* scan: full subset scans plus bulk count tables; many small kernel
  calls and multi-megabyte outputs.

End-to-end metrics (``--trace 0``).  Each job's time is its best over the
passes, so a pass that met a slow spell of a shared machine does not
count.  batch_s is the sum of those times over the list, job_s_p50 their
median, cpu_s the sum of each job's smallest user+sys time and
peak_rss_mb the largest resident set of any job.  setup_s is the median
wall time of a fresh ``compsigns --version`` (import and parser build,
paid by every run), sampled twice before every pass.  Jobs that exit
with a wrong code or print a wrong output are counted in ``failed``;
failed_share = failed / attempted is printed with the metrics.

Per-layer metrics (``--trace 1``): passes alternate between plain jobs and
jobs run through shim.py under ``-X importtime``, which records a span
around every call into the traced functions.  ``<layer>.s`` is a
function's self time (its span minus the part its child spans cover)
summed over a pass, ``.calls`` its call count; process.overhead_s is job
wall time minus the cli.main span, so the self times and the overhead
add up to each job's wall time.  Figures are medians over traced passes.
trace.overhead_share is the traced batch time over the plain one, minus 1.

Every output is checked against the references in checks.py, and a job
must print the same bytes with the same exit code in every pass, traced
or not; each job's stdout sha256 is printed so two commits can be
compared byte for byte.  The child processes get PYTHONPATH=src and a
bytecode cache in a temporary directory of their own, warmed by small
untimed jobs, so the source tree is never written to and every commit
pays the same compile cost.  The temporary directory is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import checks
import jobs as joblists

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PER_CYCLE = 2
PROBE = ("import json, os, sys, numpy, mpmath, compsigns; print(json.dumps({"
         "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
         "'mpmath': mpmath.__version__, 'compsigns': compsigns.__version__, "
         "'backend': compsigns.BACKEND, 'path': compsigns.__file__, "
         "'nproc': os.cpu_count()}))")


class BenchError(Exception):
    """The benchmark could not produce a valid measurement."""


class Runner:
    """Starts CLI processes in a private environment and times them."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        # bytecode caching is forced on, into tmp, whatever the caller's
        # environment says: an installed CLI runs from cached bytecode
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
        self.env = env

    def spawn(self, cmd: list[str], name: str) -> dict:
        """Run one process to completion; stdout and stderr go to files."""
        out_path, err_path = self.tmp / f"{name}.out", self.tmp / f"{name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024,
                "out": out_path.read_bytes(), "err": err_path.read_bytes()}

    def cli(self, argv: list[str], name: str = "job") -> dict:
        return self.spawn([sys.executable, "-m", "compsigns.cli", *argv], name)

    def traced(self, argv: list[str], name: str = "job") -> dict:
        spans_path = self.tmp / f"{name}.spans"
        spans_path.unlink(missing_ok=True)
        res = self.spawn([sys.executable, "-X", "importtime", str(HERE / "shim.py"),
                          str(spans_path), "--", *argv], name)
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
        res["layers"] = job_layers(spans, res["wall"], res["err"])
        return res


# -- set-up ------------------------------------------------------------------


def set_up(runner: Runner, workload: str, trace: bool) -> dict:
    """Check the program is the one under ROOT and warm the bytecode cache.
    Returns the versions and platform facts recorded with the result."""
    probe = runner.spawn([sys.executable, "-c", PROBE], "probe")
    if probe["code"] != 0:
        raise BenchError("cannot import compsigns: " + probe["err"].decode()[-300:])
    info = json.loads(probe["out"])
    if Path(info.pop("path")).resolve().parent != (ROOT / "src" / "compsigns").resolve():
        raise BenchError("compsigns is imported from outside this checkout")
    for argv in [["--version"], *joblists.WARMUP[workload]]:
        res = runner.cli(argv, "warmup")
        if res["code"] != 0:
            raise BenchError(f"warm-up job {shlex.join(argv)} exited {res['code']}")
        if trace:
            runner.traced(argv, "warmup")
    return info


def time_version(runner: Runner, version: str) -> float:
    """Wall time of one fresh ``compsigns --version``."""
    res = runner.cli(["--version"], "version")
    if res["code"] != 0 or res["out"].decode() != version + "\n":
        raise BenchError("compsigns --version failed")
    return res["wall"]


# -- passes over the job list -------------------------------------------------


def run_pass(runner: Runner, jobs: list[dict], traced: bool, keep: bool) -> list[dict]:
    """One pass over the job list; outputs are kept only if ``keep``."""
    run = runner.traced if traced else runner.cli
    results = []
    for job in jobs:
        res = run(job["argv"])
        res["sha256"] = hashlib.sha256(res["out"]).hexdigest()
        res["bytes"] = len(res["out"])
        if not keep:
            del res["out"], res["err"]
        results.append(res)
    return results


def measure(runner: Runner, jobs: list[dict], seconds: float, trace: bool,
            version: str) -> tuple[list[tuple[bool, list]], list[float]]:
    """Passes over the job list while the next cycle still fits in
    ``seconds``; with tracing each cycle is a plain and a traced pass.
    ``--version`` is timed a few times before every cycle, so set-up time is
    sampled across the whole run.  Returns the passes and those times."""
    modes = (False, True) if trace else (False,)
    passes, setup = [], []
    start = time.perf_counter()
    while True:
        setup += [time_version(runner, version) for _ in range(SETUP_PER_CYCLE)]
        for traced in modes:
            passes.append((traced, run_pass(runner, jobs, traced, keep=not passes)))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + len(modes) / len(passes)) > seconds:
            return passes, setup


def failures(jobs: list[dict], passes: list[tuple[bool, list]]) -> list[str]:
    """One line per failed job run.  The first pass is checked against the
    references; every later run must reproduce its exit code and bytes."""
    first = passes[0][1]
    out = []
    for job, res in zip(jobs, first):
        why = checks.check(job, res["code"], res["out"])
        if why:
            err = res["err"].decode(errors="replace").strip().splitlines()[-1:]
            out.append(f"{job['id']}: {why}" + (f" ({err[0]})" if err else ""))
    for _, results in passes[1:]:
        for job, ref, res in zip(jobs, first, results):
            if (res["code"], res["sha256"]) != (ref["code"], ref["sha256"]):
                out.append(f"{job['id']}: output differs from the first pass")
    return out


# -- metrics -----------------------------------------------------------------


def best_of(passes: list[tuple[bool, list]], traced: bool, key: str) -> list[float]:
    """Each job's smallest ``key`` over the passes of one kind."""
    runs = [results for is_traced, results in passes if is_traced is traced]
    return [min(values) for values in zip(*([r[key] for r in rs] for rs in runs))]


def end_to_end(passes: list[tuple[bool, list]], setup: list[float]) -> dict:
    """Per-job best of the plain passes, so a pass that met a slow spell of
    a shared machine does not count; set-up is the median sample."""
    walls = best_of(passes, False, "wall")
    return {
        "setup_s": statistics.median(setup),
        "batch_s": sum(walls),
        "job_s_p50": statistics.median(walls),
        "cpu_s": sum(best_of(passes, False, "cpu")),
        "peak_rss_mb": max(best_of(passes, False, "rss_mb")),
    }


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def import_times(stderr: bytes) -> dict:
    """Cumulative import seconds from ``-X importtime`` lines: all of
    compsigns (its top-level entries) and numpy and mpmath wherever they
    were first imported."""
    got = defaultdict(float)
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line.split("|", 2)
        name = raw.strip()
        seconds = int(cumulative) / 1e6
        top = raw.startswith(" ") and not raw.startswith("  ")
        if top and (name == "compsigns" or name.startswith("compsigns.")):
            got["import.compsigns_s"] += seconds
        elif name in ("numpy", "mpmath"):
            got[f"import.{name}_s"] += seconds
    return got


def job_layers(spans: list, wall: float, stderr: bytes) -> dict:
    """Per-layer figures of one traced job."""
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1 or roots[0][0] != "cli.main":
        raise BenchError("a traced job has spans outside cli.main")
    main_s = roots[0][2] - roots[0][1]
    selfs = self_times(spans)
    if abs(sum(selfs) - main_s) > 1e-6 * (1 + len(spans)):
        raise BenchError("self times do not add up to the cli.main span")
    got = import_times(stderr)
    got["process.overhead_s"] = wall - main_s
    for (name, start, end, _), self_s in zip(spans, selfs):
        got[f"{name}.s"] += self_s
        got[f"{name}.calls"] += 1
        if name == "explorer.enumerate_F":
            got["enumerate_span_s"] += end - start
    return got


def per_layer(jobs: list[dict], passes: list[tuple[bool, list]]) -> dict:
    traced = []
    for is_traced, results in passes:
        if is_traced:
            total = defaultdict(float)
            for res in results:
                for key, value in res["layers"].items():
                    total[key] += value
            traced.append(total)
    layers = {k: statistics.median(t[k] for t in traced) for k in set().union(*traced)}
    first = passes[0][1]
    masks = sum(1 << job["N"] for job in jobs if job["kind"] == "enumerate")
    span = layers.get("enumerate_span_s", 0.0)
    reports = [json.loads(res["out"]) for job, res in zip(jobs, first)
               if job["kind"] in ("nonperiodic", "cyclotomic")]
    layers.update({
        "explorer.masks_per_s": masks / span if span else 0.0,
        "cli.stdout_bytes": sum(res["bytes"] for res in first),
        "nonperiodic.decided_share": (sum(r["verdict"] == checks.NEP for r in reports)
                                      / len(reports) if reports else 0.0),
        "nonperiodic.exact_runs": sum(r["exact_test"] is not None for r in reports),
        "trace.overhead_share": (sum(best_of(passes, True, "wall"))
                                 / sum(best_of(passes, False, "wall")) - 1),
    })
    return layers


# -- driver ------------------------------------------------------------------


def bench(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One measured run of one workload; prints its report, returns its result."""
    jobs = joblists.job_list(workload, seed)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        runner = Runner(tmp)
        info = set_up(runner, workload, trace)
        passes, setup = measure(runner, jobs, seconds, trace, info["compsigns"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    failed = failures(jobs, passes)
    attempted = len(jobs) * len(passes)
    values = per_layer(jobs, passes) if trace else end_to_end(passes, setup)
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}

    print(f"workload={workload} seed={seed} trace={int(trace)} passes={len(passes)} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for job, res in zip(jobs, passes[0][1]):
        print(f"  {job['id']} exit={res['code']} wall_s={res['wall']:.4f} "
              f"sha256={res['sha256']} compsigns {shlex.join(job['argv'])}")
    for line in failed:
        print(f"  FAILED {line}")
    print("  pass times: " + " ".join(f"{'traced ' if t else ''}{sum(r['wall'] for r in rs):.3f}s"
                                      for t, rs in passes))
    print(f"  attempted={attempted} failed={len(failed)} "
          f"failed_share={len(failed) / attempted:.4f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*joblists.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print the seeded job lists and exit")
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the job it is running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = joblists.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.list:
        for workload in workloads:
            for job in joblists.job_list(workload, args.seed):
                print(f"{job['id']}\tcompsigns {shlex.join(job['argv'])}")
        return 0
    if not (ROOT / "src" / "compsigns" / "cli.py").is_file():
        print(f"no compsigns sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
    try:
        results = {w: bench(w, args.seed, args.seconds, bool(args.trace), spec)
                   for w in workloads}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
