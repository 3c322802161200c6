"""How far the CLI's one-thread BLAS pin reaches, in fresh interpreters.

`subspec.cli` sets OPENBLAS_NUM_THREADS=1, unless the caller set it, before
numpy first loads OpenBLAS, so a CLI run starts no idle BLAS worker thread.
`import subspec` loads neither numpy nor a submodule and leaves the
variable alone, so library users keep their BLAS threads.  Output bytes must
not depend on the BLAS thread count, nor on the number of processes that
solve a Jacobi stack; no worker outlives the call that started it, and
`verify` starts none, and loads no `numpy.random`.  The test process itself
imported numpy long ago, so the pin, the split and the loaded modules can
only be seen from a new interpreter; the import-order, fork, PRNG,
matrix-product, LAPACK and distance guards below read the source instead.
"""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import subspec

SRC = Path(subspec.__file__).resolve().parent
TASKS = Path("/proc/self/task")
needs_proc = pytest.mark.skipif(not TASKS.is_dir(), reason="no per-thread /proc entries")

# a singular-mode run whose product gram(M), 200 x 200 (n * n * n = 8e6
# multiply-adds), crosses OpenBLAS's one-thread limit for gemm (262144)
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


# order-32 blocks, solved by Householder + bisection: in parts in forked
# workers at one BLAS thread, and serially at two, which `_fork_cpus` refuses
BISECTION_RUN = ["estimate", "--ensemble", "random-gaussian", "--n", "64", "--k", "32",
                 "--samples", "20", "--seed", "1"]


def test_output_bytes_do_not_depend_on_blas_threads():
    for run in (SINGULAR_RUN, ["verify", "--n", "3", "4", "5"], BISECTION_RUN):
        digests = {threads: hashlib.sha256(run_python(["-m", "subspec.cli", *run],
                                                      threads)).hexdigest()
                   for threads in (1, 2)}
        assert digests[1] == digests[2]


SPLIT_RUNS = {
    "estimate-rw": ["estimate", "--ensemble", "rw-covariance", "--n", "100", "--k", "20",
                    "--samples", "25", "--seed", "1"],
    "random-gaussian-k64": ["estimate", "--ensemble", "random-gaussian", "--n", "100",
                            "--k", "64", "--samples", "4", "--seed", "1"],
}
# the Jacobi split as the box gives it, off, and at three processes per stack
SPLIT_SETTINGS = {
    "default": "",
    "off": "linalg._PART_MIN_WORK = 10**30",
    "forced": "linalg._PART_MIN_WORK = 1\nos.sched_getaffinity = lambda pid: {0, 1, 2}",
}


def split_probe(setting, body):
    """Python source that imports the CLI, applies `setting` (source text,
    such as a value of SPLIT_SETTINGS), counts this process's forks, runs
    `body`, and prints [forks, whether a child process is left unreaped]
    last."""
    return (f"import json, os, sys\nimport subspec.cli as cli\nfrom subspec import linalg\n"
            f"{setting}\nforks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            f"{body}\n"
            "try:\n    os.waitpid(-1, os.WNOHANG)\n    left = True\n"
            "except ChildProcessError:\n    left = False\n"
            "print(json.dumps([len(forks), left]))")


@needs_proc
@pytest.mark.parametrize("run", list(SPLIT_RUNS))
def test_output_bytes_do_not_depend_on_the_worker_count(run, tmp_path):
    digests, forks = set(), {}
    for setting in SPLIT_SETTINGS:
        out = tmp_path / f"{setting}.json"
        body = f"assert cli.main({SPLIT_RUNS[run] + ['--out', str(out)]!r}) == 0"
        forks[setting], left = json.loads(run_python(
            ["-c", split_probe(SPLIT_SETTINGS[setting], body)]))
        assert not left
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1
    assert forks["off"] == 0 and forks["forced"] >= 2


@needs_proc
def test_cli_process_may_fork_one_worker_per_cpu():
    code = split_probe("", "print(linalg._fork_cpus(), len(os.sched_getaffinity(0)))")
    cpus, affinity = run_python(["-c", code]).decode().splitlines()[0].split()
    assert cpus == affinity


@needs_proc
def test_workers_flush_no_inherited_output():
    # text that stdout buffers before the fork is written once, by this
    # process; an interpreter that exits normally would flush its copy too
    body = ("import numpy as np\n"
            "sys.stdout = open(sys.stdout.fileno(), 'w', buffering=1 << 16, closefd=False)\n"
            "print('before', end=' ')\n"
            "linalg._symmetric_eigenvalues(np.array([np.eye(3)] * 6))\n"
            "print('after')")
    lines = run_python(["-c", split_probe(SPLIT_SETTINGS["forced"], body)]).decode().splitlines()
    assert lines[0] == "before after"
    assert json.loads(lines[1]) == [2, False]


VERIFY_RUNS = {"n345": (["verify", "--n", "3", "4", "5"], 0),
               "corrupt": (["verify", "--n", "3", "4", "5", "--self-test-corrupt"], 1),
               "n2": (["verify", "--n", "2"], 0)}
# the Jacobi split as two CPUs give it, and at three processes per stack
VERIFY_SETTINGS = {"default": "os.sched_getaffinity = lambda pid: {0, 1}",
                   "forced": SPLIT_SETTINGS["forced"]}


@needs_proc
@pytest.mark.parametrize("run", list(VERIFY_RUNS))
def test_verify_bytes_do_not_depend_on_the_jacobi_split(run, tmp_path):
    argv, exit_code = VERIFY_RUNS[run]
    digests, forks = set(), {}
    for setting, setup in VERIFY_SETTINGS.items():
        out = tmp_path / f"{setting}.json"
        body = f"assert cli.main({argv + ['--out', str(out)]!r}) == {exit_code}"
        forks[setting], left = json.loads(run_python(["-c", split_probe(setup, body)]))
        assert not left
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1
    # no stack of verify's pays for a process; the walk's gap solves in-process
    assert forks["default"] == 0
    assert forks["forced"] >= 1


def _forks(node: ast.AST) -> int:
    """How many `os.fork...` attributes appear inside `node`."""
    return sum(isinstance(sub, ast.Attribute) and ast.unparse(sub).startswith("os.fork")
               for sub in ast.walk(node))


def test_one_function_forks():
    # one parallelism mechanism: one `os.fork` in the package, in one
    # function, and no module imports another way to run work concurrently
    forks, forking, others = 0, [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        forks += _forks(tree)
        forking += [f"{path.stem}.{func.name}" for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and _forks(func)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                others += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                others += [node.module] + [f"os.{alias.name}" for alias in node.names
                                           if node.module == "os"]
    assert (forks, forking) == (1, ["linalg.forked"])
    assert [name for name in others if name.startswith("os.") or name.split(".")[0] in (
        "threading", "_thread", "multiprocessing", "concurrent", "subprocess")] == []


# generators other than the package's one, `sampling.Xoshiro256pp`
_OTHER_PRNGS = ("random", "secrets", "numpy.random")


def test_one_prng():
    # no module imports another generator or reads numpy's `random`
    # attribute, under any name numpy is imported as
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [alias for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        numpy_names = {"numpy"} | {alias.asname for alias in imported if alias.name == "numpy"}
        names = [alias.name for alias in imported]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                names += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif (isinstance(node, ast.Attribute) and node.attr == "random"
                  and ast.unparse(node.value) in numpy_names):
                found.append(f"{path.stem}: {ast.unparse(node)}")
        found += [f"{path.stem}: import {name}" for name in names
                  if any(name == prng or name.startswith(prng + ".") for prng in _OTHER_PRNGS)]
    assert found == []


def test_verify_loads_no_numpy_random(tmp_path):
    code = ("import sys\nimport subspec.cli as cli\n"
            f"assert cli.main(['verify', '--n', '3', '--out', {str(tmp_path / 'v.json')!r}]) == 0\n"
            "print(sorted(name for name in sys.modules if name.startswith('numpy.random')))")
    assert run_python(["-c", code]).decode().strip() == "[]"


# numpy's product calls, by attribute (np.dot, x.dot) or by imported name
_PRODUCT_NAMES = ("matmul", "dot", "einsum")


def _products(node: ast.AST) -> int:
    """How many matrix products, `@` or `@=` or a numpy product call, appear
    inside `node`."""
    return sum(isinstance(sub, ast.MatMult)
               or isinstance(sub, ast.Attribute) and sub.attr in _PRODUCT_NAMES
               or isinstance(sub, ast.Name) and sub.id in _PRODUCT_NAMES
               for sub in ast.walk(node))


def test_one_function_multiplies_matrices():
    # gram(M) is the package's one matrix product; the eigenvalue hint's
    # LAPACK call, guarded below, is its other use of BLAS
    products, multiplying = 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        products += _products(tree)
        multiplying += [f"{path.stem}.{func.name}" for func in ast.walk(tree)
                        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _products(func)]
    assert (products, multiplying) == (1, ["linalg.gram"])


def _lapack_uses(node: ast.AST) -> int:
    """How many references to numpy.linalg, as `np.linalg` or `numpy.linalg`
    or in an import, appear inside `node`."""
    return sum(isinstance(sub, ast.Attribute) and sub.attr == "linalg"
               and ast.unparse(sub.value) in ("np", "numpy")
               or isinstance(sub, (ast.Import, ast.ImportFrom))
               and re.search(r"\bnumpy\b.*\blinalg\b", ast.unparse(sub)) is not None
               for sub in ast.walk(node))


def test_one_function_calls_lapack():
    # LAPACK proposes and bisection decides: numpy.linalg is read only by
    # the hint that `linalg._bisection` checks with Sturm counts
    uses, calling = 0, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses += _lapack_uses(tree)
        calling |= {f"{path.stem}.{func.name}": _lapack_uses(func) for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _lapack_uses(func)}
    assert list(calling) == ["linalg._eigenvalue_hint"]
    assert uses == calling["linalg._eigenvalue_hint"]


def test_one_module_measures_distances():
    # every sup distance of step CDFs is one of `spectra`'s, and the
    # chaining check and the CLI call them instead of keeping their own
    measuring = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        measuring += [f"{path.stem}.{func.name}" for func in ast.walk(tree)
                      if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and "distance" in func.name]
    assert {name.split(".")[0] for name in measuring} == {"spectra"}


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
