"""Parity tests between the compiled kernels and the pure-Python twins.

The extension is built by setup.py, as an install builds it, into a
temporary directory and loaded from there.  Every kernel must give
bit-identical results on both backends; the compiled module is an
optimization, never a semantic fork.
"""

import importlib.util
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import alt_moment_sum, first_violation_reference

from compsigns import _kernels_py as pyk

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "compsigns"

KERNELS = ["conv", "conv_trunc", "comp_poly_rows", "eval_table",
           "delta_eval_table", "sk_rows", "series_inv_int", "first_violation"]


def _have_c_compiler() -> bool:
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    return bool(cc) and shutil.which(cc[0]) is not None


@pytest.fixture(scope="module")
def built_so(tmp_path_factory):
    """Path of the extension that `setup.py build_ext` builds."""
    if not _have_c_compiler():
        pytest.skip("no C compiler")
    out = tmp_path_factory.mktemp("build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True)
    so = out / "lib" / "compsigns" / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert proc.returncode == 0 and so.is_file(), proc.stdout + proc.stderr
    return so


@pytest.fixture(scope="module")
def cyk(built_so):
    spec = importlib.util.spec_from_file_location("compsigns._kernels", built_so)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_same_surface(cyk):
    for name in KERNELS:
        assert callable(getattr(cyk, name))
        assert callable(getattr(pyk, name))


def test_conv_parity(cyk):
    rng = random.Random(501)
    for _ in range(40):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
        assert cyk.conv(a, b) == pyk.conv(a, b)
        order = rng.randint(0, 15)
        assert cyk.conv_trunc(a, b, order) == pyk.conv_trunc(a, b, order)


def test_table_parity(cyk):
    rng = random.Random(502)
    for _ in range(25):
        members = sorted(rng.sample(range(1, 12), rng.randint(0, 5)))
        n_max = rng.randint(0, 30)
        assert cyk.comp_poly_rows(members, n_max) == pyk.comp_poly_rows(members, n_max)
        for t in (-2, -1, 1, 3):
            ev_c = cyk.eval_table(members, n_max, t)
            ev_p = pyk.eval_table(members, n_max, t)
            assert ev_c == ev_p
            assert (cyk.delta_eval_table(members, n_max, t, ev_c)
                    == pyk.delta_eval_table(members, n_max, t, ev_p))


def test_sk_rows_parity(cyk):
    rng = random.Random(503)
    for _ in range(15):
        members = sorted(rng.sample(range(1, 10), rng.randint(1, 4)))
        rows_c = cyk.sk_rows(members, 4, 40)
        rows_p = pyk.sk_rows(members, 4, 40)
        assert rows_c == rows_p


def test_series_and_violation_parity(cyk):
    rng = random.Random(504)
    for _ in range(25):
        coeffs = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 8))]
        order = rng.randint(0, 25)
        assert cyk.series_inv_int(coeffs, order) == pyk.series_inv_int(coeffs, order)
        members = sorted(rng.sample(range(1, 9), rng.randint(0, 4)))
        top = max(members, default=0)
        for horizon in (0, top - 1, top, 60, 300):
            assert (cyk.first_violation(members, horizon)
                    == pyk.first_violation(members, horizon))


@st.composite
def _members_and_horizon(draw):
    pool = draw(st.sampled_from([range(1, 21), range(2, 21, 2), range(1, 21, 2)]))
    members = sorted(draw(st.sets(st.sampled_from(pool), max_size=8)))
    top = max(members, default=0)
    horizon = draw(st.one_of(st.sampled_from([0, top - 1, top, top + 1]),
                             st.integers(0, 400)))
    return members, max(horizon, 0)


@settings(max_examples=300, deadline=None, database=None)
@given(_members_and_horizon())
def test_first_violation_matches_reference(case):
    # the pure-Python kernel against the plain recurrence, and at small
    # horizons against signed composition counts
    members, horizon = case
    got = pyk.first_violation(members, horizon)
    assert got == first_violation_reference(members, horizon)
    if horizon <= 30:
        want = next((n for n in range(horizon + 1)
                     if (-1) ** n * alt_moment_sum(members, 0, n) < 0), -1)
        assert got == want


def test_big_integer_parity(cyk):
    # counts grow fast; make sure the compiled path stays on exact ints
    members = [1, 2, 3]
    big_c = cyk.eval_table(members, 300, 1)
    big_p = pyk.eval_table(members, 300, 1)
    assert big_c == big_p
    assert big_c[300] > 10**75  # growth rate ~1.839^n, far past float range


def _backend_in_copy(root: Path, so: Path | None) -> str:
    """BACKEND reported by a fresh process importing a copy of the package
    placed under root, with the compiled extension added when so is given."""
    pkg = root / "compsigns"
    shutil.copytree(PACKAGE, pkg,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.c"))
    if so is not None:
        shutil.copy(so, pkg / so.name)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import compsigns; print(compsigns.BACKEND, compsigns.__file__)"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root)},
        capture_output=True, text=True, check=True)
    backend, path = proc.stdout.split()
    assert Path(path).resolve().parent == pkg.resolve()
    return backend


def test_backend_selection(tmp_path, built_so):
    assert _backend_in_copy(tmp_path / "with_so", built_so) == "cython"
    assert _backend_in_copy(tmp_path / "without_so", None) == "python"


_PYX_MARK = "# <<<<<<<<<<<<<<"


def test_committed_c_matches_pyx():
    """Each source line Cython quoted in _kernels.c equals that line of the
    current _kernels.pyx.

    Cython copies the statement it translates into a comment block headed
    `/* "compsigns/_kernels.pyx":N` and marks the statement's own line
    with `# <<<<<<<<<<<<<<`.  A code edit to the .pyx that was not followed
    by regenerating the .c fails here.  Edits confined to comments or
    docstrings are not caught, nor are edits to lines Cython does not
    quote, such as bare `cdef` declarations.
    """
    pyx = (PACKAGE / "_kernels.pyx").read_text().splitlines()
    c_text = (PACKAGE / "_kernels.c").read_text()
    blocks = re.findall(r'/\* "compsigns/_kernels\.pyx":(\d+)\n(.*?)\*/', c_text, re.S)
    quoted = set()
    for lineno, body in blocks:
        marked = [ln for ln in body.splitlines() if ln.endswith(_PYX_MARK)]
        assert len(marked) == 1, body
        code = marked[0][len(" * "):-len(_PYX_MARK)].rstrip()
        n = int(lineno)
        assert 1 <= n <= len(pyx), n
        assert code == pyx[n - 1].rstrip(), (n, code, pyx[n - 1])
        quoted.add(n)
    # every function header must be among the quoted lines, so a change in
    # the comment format cannot make this test pass vacuously
    defs = {i + 1 for i, ln in enumerate(pyx) if ln.startswith("def ")}
    assert defs and defs <= quoted
