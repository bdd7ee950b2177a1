"""The benchmark's job lists (perfbench/jobs.py) pass fixed command lines
to the CLI, and a flag the CLI no longer accepts fails every run of the
workload that passes it.  This parses each of those command lines with
the CLI's own parser, which reads them against its option table, without
running any job."""

import importlib.util
from pathlib import Path

import pytest

from compsigns import cli

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"


def _jobs_module():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


jobs = _jobs_module()


def _parses(argv):
    try:
        args = cli._parse(argv)
    except cli._UsageError as exc:
        pytest.fail(f"{' '.join(argv)}: {exc}")
    assert args.command == argv[0]  # a run, not the text of --help


@pytest.mark.parametrize("seed", [1, 7, 2101])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_lists_parse(workload, seed):
    if workload == "certify":  # its set picker calls numpy
        pytest.importorskip("numpy")
    job_list = jobs.job_list(workload, seed)
    assert job_list
    for job in job_list:
        _parses(job["argv"])


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_warmup_parses(workload):
    for argv in jobs.WARMUP[workload]:
        _parses(argv)
