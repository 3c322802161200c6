"""How far the CLI's one-thread BLAS pin reaches, in fresh interpreters.

`subspec.cli` sets OPENBLAS_NUM_THREADS=1, unless the caller set it, before
numpy first loads OpenBLAS, so a CLI run starts no idle BLAS worker thread.
`import subspec` loads neither numpy nor a submodule and leaves the
variable alone, so library users keep their BLAS threads.  Output bytes must
not depend on the BLAS thread count.  The test process itself imported
numpy long ago, so the pin can only be seen from a new interpreter; the
import-order guards below read the source instead.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subspec

SRC = Path(subspec.__file__).resolve().parent
TASKS = Path("/proc/self/task")
needs_proc = pytest.mark.skipif(not TASKS.is_dir(), reason="no per-thread /proc entries")

# a singular-mode run whose 40 x 200 Gram products (k * k * n = 320000)
# cross OpenBLAS's one-thread limit for gemm (262144 multiply-adds)
SINGULAR_RUN = ["estimate", "--ensemble", "random-gaussian", "--n", "200", "--k", "40",
                "--samples", "5", "--seed", "1", "--mode", "singular"]


def run_python(args, blas_threads=None):
    """stdout of `python ARGS` on this checkout's package, with
    OPENBLAS_NUM_THREADS set to `blas_threads` or unset."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
    return done.stdout


def probe(imports, blas_threads=None):
    """(numpy loaded, OPENBLAS_NUM_THREADS, OS threads or None) after `imports`."""
    code = (f"{imports}\nimport json, os, sys\n"
            f"tasks = len(os.listdir({str(TASKS)!r})) if os.path.isdir({str(TASKS)!r}) else None\n"
            "print(json.dumps(['numpy' in sys.modules,"
            " os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))")
    return tuple(json.loads(run_python(["-c", code], blas_threads)))


@pytest.mark.parametrize("blas_threads", [None, 3])
def test_import_subspec_loads_no_numpy_and_keeps_the_environment(blas_threads):
    numpy_loaded, setting, _ = probe("import subspec\nsubspec.__all__, subspec.__version__",
                                     blas_threads)
    assert not numpy_loaded
    assert setting == (None if blas_threads is None else str(blas_threads))


def test_lazy_names_resolve_in_a_fresh_interpreter():
    names = ("import subspec\nfrom subspec import *\n"
             "assert subspec.walk.spectral_gap is spectral_gap is subspec.spectral_gap\n"
             "assert subspec.oracle.exact_F is exact_F and not hasattr(subspec, 'cli')\n"
             "assert not hasattr(subspec, 'no_such_name')")
    assert probe(names)[:2] == (True, None)


@needs_proc
def test_cli_import_runs_one_thread():
    assert probe("import subspec.cli") == (True, "1", 1)


def test_caller_setting_is_kept():
    numpy_alone = probe("import numpy", blas_threads=2)
    assert probe("import subspec.cli", blas_threads=2) == numpy_alone
    assert numpy_alone[1] == "2"


def test_output_bytes_do_not_depend_on_blas_threads():
    digests = {threads: hashlib.sha256(run_python(["-m", "subspec.cli", *SINGULAR_RUN],
                                                  threads)).hexdigest()
               for threads in (1, 2)}
    assert digests[1] == digests[2]


def _loads_numpy_or_package(node: ast.AST) -> bool:
    """True for an import of numpy, of subspec or a relative one, or an
    `importlib.import_module` call, anywhere inside `node`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and (sub.level or sub.module.split(".")[0] in (
                "numpy", "subspec")):
            return True
        if isinstance(sub, ast.Import) and any(
                alias.name.split(".")[0] in ("numpy", "subspec") for alias in sub.names):
            return True
        if isinstance(sub, ast.Call) and ast.unparse(sub.func).endswith("import_module"):
            return True
    return False


def test_cli_pins_blas_before_numpy_and_the_package():
    body = ast.parse((SRC / "cli.py").read_text(encoding="utf-8")).body
    pins = [i for i, node in enumerate(body) if isinstance(node, ast.Expr)
            and ast.unparse(node) == "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')"]
    assert len(pins) == 1
    assert [ast.unparse(node) for node in body[:pins[0]] if _loads_numpy_or_package(node)] == []
    assert any(_loads_numpy_or_package(node) for node in body[pins[0]:])


def test_package_init_imports_no_submodule_at_top_level():
    body = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
    eager = [ast.unparse(node) for node in body
             if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and _loads_numpy_or_package(node)]
    assert eager == []
