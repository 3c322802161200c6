"""The subspec benchmark: fixed CLI jobs, timed end to end, with a traced run
for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is a fresh interpreter (`child.py`) that imports `subspec.cli` from
this checkout's `src/` and runs one subcommand, as a CLI user pays for it:
cold caches and the numpy import included.  Jobs run one at a time (a
closed loop with one client).  Every output is checked and hashed; a job
fails on a non-zero exit, a failed check, or an output hash that differs
from the other jobs of its run with the same arguments.

--trace 0 runs the job repeatedly for about S seconds, after a fixed
numpy probe and a few import-only launches, and reports the end-to-end
metrics as medians over the successful jobs.  --trace 1 runs the job
once untraced and once traced (plus, for the estimate workloads, once
traced at twice the samples) and reports the per-layer metrics.  The last
stdout line is the result object, the line before it holds quartiles, job
records and host details, and the exit code is 0 whenever a result is
printed; failed jobs show in it as `correct: false`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spans import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_SAMPLES = 7          # import-only launches per timed run, besides the jobs'
HARD_LIMIT_S = 170.0       # a run never outlives this, even if a job hangs
POLL_S = 0.02

# The problem each workload states.  Jobs are kept near 2 s so that one run
# holds about ten: on a shared host, interference comes in bursts of a few
# seconds, which a median over many short jobs rejects and one long job
# cannot.
# SMOKE keeps every code path (Monte Carlo reference, enumeration, walk
# checks) at sizes that run in well under a second.
FULL = {
    "estimate-rw": {"n": 100, "k": 20, "samples": 25},
    "estimate-halfones": {"n": 1024, "k": 256, "samples": 100},
    "oracle-rw": {"n": 11, "k": 5, "x": [10, 30]},
    "verify-walk": {"n": [3, 4, 5]},
}
SMOKE = {
    "estimate-rw": {"n": 40, "k": 12, "samples": 6},
    "estimate-halfones": {"n": 128, "k": 32, "samples": 40},
    "oracle-rw": {"n": 8, "k": 3, "x": [3, 9]},
    "verify-walk": {"n": [3, 4]},
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "work_per_s": "1/s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- output checks

def _check_estimate(doc: dict, size: dict) -> list[str]:
    report = doc["report"]
    problems = []
    if report["F_hat"]["cum"][-1] != 1.0:
        problems.append(f"F_hat.cum[-1] = {report['F_hat']['cum'][-1]!r}, not 1")
    if not report["mean_supnorm"] <= doc["mean_bound"]:
        problems.append(f"mean_supnorm {report['mean_supnorm']} > mean_bound {doc['mean_bound']}")
    if doc["tail_violations"]:
        problems.append(f"{len(doc['tail_violations'])} tail violations")
    return problems


def halfones_deviation_law(n: int, k: int) -> tuple[float, float, float]:
    """Exact mean and standard deviation of |d/n - H/k|, and the standard
    deviation of H/k, for H hypergeometric (k draws, d = n // 2 marked of n).

    That deviation is the sup-norm distance of a half-ones subset ESD from
    the exact expected CDF.  Computed here from integer binomials,
    independently of the package's own oracle."""
    d = n // 2
    total = math.comb(n, k)
    hs = range(max(0, k - (n - d)), min(k, d) + 1)
    probs = [math.comb(d, h) * math.comb(n - d, k - h) / total for h in hs]
    devs = [abs(d / n - h / k) for h in hs]
    mean = math.fsum(p * v for p, v in zip(probs, devs))
    var = math.fsum(p * (v - mean) ** 2 for p, v in zip(probs, devs))
    frac_mean = math.fsum(p * h / k for p, h in zip(probs, hs))
    frac_var = math.fsum(p * (h / k - frac_mean) ** 2 for p, h in zip(probs, hs))
    return mean, math.sqrt(var), math.sqrt(frac_var)


def _check_halfones(doc: dict, size: dict) -> list[str]:
    problems = _check_estimate(doc, size)
    n, k, samples = size["n"], size["k"], doc["report"]["n_samples"]
    mean, sd, frac_sd = halfones_deviation_law(n, k)
    # sampling error of the mean, plus that of the Monte Carlo reference
    # (ten times the samples), which shifts every deviation by its own error
    stderr = math.sqrt(sd * sd / samples + frac_sd * frac_sd / (10 * samples))
    got = doc["report"]["mean_supnorm"]
    if abs(got - mean) > 4.0 * stderr:
        problems.append(f"mean_supnorm {got} is {abs(got - mean) / stderr:.1f} standard "
                        f"errors from the exact mean {mean}")
    return problems


def _check_oracle(doc: dict, size: dict) -> list[str]:
    problems = []
    probs = doc["supnorm_distribution"]["probabilities"]
    if abs(math.fsum(probs) - 1.0) > 1e-12:
        problems.append(f"probabilities sum to {math.fsum(probs)!r}")
    jumps, cum = doc["exact_F"]["jumps"], doc["exact_F"]["cum"]
    for point in doc["pointwise"]:
        at = bisect_right(jumps, point["x"])
        expected = cum[at - 1] if at else 0.0
        if abs(point["F"] - expected) > 1e-12:
            problems.append(f"pointwise F({point['x']}) = {point['F']}, exact_F gives {expected}")
    return problems


def _check_verify(doc: dict, size: dict) -> list[str]:
    return [] if doc["pass"] is True else ["verification report has pass != true"]


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    subcommand: str
    ensemble: str | None
    check: Callable[[dict, dict], list[str]]
    units: Callable[[dict, dict], float]   # work units one job completes
    scales: bool = False                   # traced run adds a 2x-samples point

    def argv(self, size: dict, seed: int, factor: int = 1) -> list[str]:
        """Only the flags that state the problem; no execution flags."""
        if self.subcommand == "verify":
            return ["verify", "--n", *map(str, size["n"])]
        args = [self.subcommand, "--ensemble", self.ensemble,
                "--n", str(size["n"]), "--k", str(size["k"])]
        if self.subcommand == "estimate":
            return args + ["--samples", str(size["samples"] * factor), "--seed", str(seed)]
        return args + ["--x", *map(str, size["x"])]


WORKLOADS = {
    "estimate-rw": Workload("estimate", "rw-covariance", _check_estimate,
                            lambda doc, size: doc["report"]["n_samples"], scales=True),
    "estimate-halfones": Workload("estimate", "half-ones", _check_halfones,
                                  lambda doc, size: doc["report"]["n_samples"], scales=True),
    "oracle-rw": Workload("oracle", "rw-covariance", _check_oracle,
                          lambda doc, size: math.comb(size["n"], size["k"])),
    "verify-walk": Workload("verify", None, _check_verify,
                            lambda doc, size: len(doc["checks"])),
}


# ---------------------------------------------------------------- running jobs

@dataclass
class Job:
    argv: list[str]
    rc: int
    problems: list[str]
    sha256: str | None = None
    output_bytes: int = 0
    wall_s: float = 0.0          # cli.main call to return, inside the child
    setup_s: float = 0.0         # child launch to `subspec.cli` imported
    cpu_s: float = 0.0           # user + system of the child process
    peak_rss_mb: float = 0.0
    duration_s: float = 0.0      # launch to exit, parent clock
    units: float = 0.0
    spans: dict | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.problems

    def record(self) -> dict:
        return {"argv": self.argv, "rc": self.rc, "ok": self.ok, "problems": self.problems,
                "sha256": self.sha256, "output_bytes": self.output_bytes,
                "wall_s": self.wall_s, "setup_s": self.setup_s, "cpu_s": self.cpu_s,
                "peak_rss_mb": self.peak_rss_mb, "traced": self.spans is not None}


@dataclass
class Exit:
    """How one child process ended."""
    rc: int
    usage: object          # resource.struct_rusage of the child
    t_launch: float        # monotonic clock just before the launch
    duration_s: float
    timed_out: bool
    stderr_path: Path


def child_env() -> dict:
    """The caller's environment without SUBSPEC_* settings, importing only
    this checkout's package."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("SUBSPEC_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Launches children in a scratch directory inside the checkout."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def _launch(self, args: list[str]) -> Exit:
        self.count += 1
        stderr_path = self.scratch / f"stderr-{self.count}.txt"
        with open(stderr_path, "wb") as stderr:
            t_launch = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=self.scratch,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=stderr)
            timed_out = False
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        timed_out = True
                        proc.kill()
                        _, status, usage = os.wait4(proc.pid, 0)
                        break
                    time.sleep(POLL_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            duration = time.monotonic() - t_launch
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Exit(proc.returncode, usage, t_launch, duration, timed_out, stderr_path)

    def setup_sample(self) -> float:
        """Seconds from launching an interpreter until `subspec.cli` is imported."""
        result_path = self.scratch / f"result-{self.count + 1}.json"
        end = self._launch([str(result_path)])
        if end.rc != 0:
            raise BenchError(f"importing subspec.cli failed (exit {end.rc}): "
                             f"{end.stderr_path.read_text(errors='replace')[-2000:]}")
        return json.loads(result_path.read_text())["t_imported"] - end.t_launch

    def run_job(self, workload: Workload, size: dict, argv: list[str],
                trace_id: str | None = None) -> Job:
        tag = self.count + 1
        result_path = self.scratch / f"result-{tag}.json"
        out_path = self.scratch / f"out-{tag}.json"
        spans_path = self.scratch / f"spans-{tag}.json"
        trace = ["--trace", str(spans_path), trace_id] if trace_id else []
        end = self._launch([str(result_path), *trace, "--", *argv, "--out", str(out_path)])
        job = Job(argv=argv, rc=end.rc, problems=[], duration_s=end.duration_s,
                  cpu_s=end.usage.ru_utime + end.usage.ru_stime,
                  peak_rss_mb=end.usage.ru_maxrss / 1024.0)
        if end.timed_out:
            job.problems.append("timed out")
        if end.rc != 0:
            tail = end.stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
            job.problems.append(f"exit code {end.rc}" + (f": {tail[0]}" if tail else ""))
        if result_path.exists():
            timing = json.loads(result_path.read_text())
            job.setup_s = timing["t_imported"] - end.t_launch
            job.wall_s = timing.get("wall_s", 0.0)
        if not out_path.exists():
            job.problems.append("no output written")
            return job
        data = out_path.read_bytes()
        job.sha256 = hashlib.sha256(data).hexdigest()
        job.output_bytes = len(data)
        try:
            doc = json.loads(data)
            job.problems += workload.check(doc, size)
            job.units = float(workload.units(doc, size))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            job.problems.append(f"output check could not read the output: {exc!r}")
        if trace_id and spans_path.exists():
            job.spans = json.loads(spans_path.read_text())
        return job


def mark_divergent(jobs: list[Job]) -> None:
    """Fail every job whose output hash differs from the most common hash
    among the jobs with the same arguments (ties go to the first seen)."""
    groups: dict[tuple, list[Job]] = defaultdict(list)
    for job in jobs:
        if job.sha256 is not None:
            groups[tuple(job.argv)].append(job)
    for group in groups.values():
        common = Counter(job.sha256 for job in group).most_common(1)[0][0]
        for job in group:
            if job.sha256 != common:
                job.problems.append("output sha256 differs from the rest of the set")


# ---------------------------------------------------------------- statistics

def summary(values: list[float], unit: str) -> dict:
    """Median, quartiles and count; quartiles are the median for one value."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0, "unit": unit}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "unit": unit}


def numpy_probe() -> float:
    """Seconds for a fixed subspec-free numpy loop, to show host drift.
    Recorded only; it never rescales a metric."""
    import numpy as np
    rng = np.random.default_rng(20260808)
    a = rng.standard_normal((96, 96))
    a = a + a.T
    start = time.perf_counter()
    for _ in range(150):
        np.linalg.eigvalsh(a)
    return time.perf_counter() - start


def provenance() -> dict:
    import numpy as np
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: {field: deps[key].get(field) for field in
                      ("name", "version", "openblas configuration")} for key in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "subspec").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------- timed run

def end_to_end_stats(jobs: list[Job], setup: list[float]) -> dict[str, dict]:
    """Summaries over the successful jobs only; set-up time also takes the
    import-only samples."""
    good = [job for job in jobs if job.ok]
    return {
        "wall_s": summary([job.wall_s for job in good], "s"),
        "cpu_s": summary([job.cpu_s for job in good], "s"),
        "setup_s": summary(setup + [job.setup_s for job in good], "s"),
        "peak_rss_mb": summary([job.peak_rss_mb for job in good], "MB"),
        "work_per_s": summary([job.units / job.wall_s for job in good], "1/s"),
    }


def timed_run(runner: Runner, workload: Workload, size: dict, seed: int,
              seconds: float) -> tuple[list[Job], dict, dict]:
    """Set-up samples, then the job repeated while another one still fits in
    `seconds` (at least one job)."""
    start = time.monotonic()
    probe_s = numpy_probe()
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    argv = workload.argv(size, seed)
    jobs: list[Job] = []
    while True:
        jobs.append(runner.run_job(workload, size, argv))
        typical = statistics.median(job.duration_s for job in jobs)
        if time.monotonic() + typical > start + seconds:
            break
    mark_divergent(jobs)
    stats = end_to_end_stats(jobs, setup)
    metrics = {name: stats[name]["median"] for name in END_TO_END}
    return jobs, metrics, {"probe_s": probe_s, "stats": stats}


# ---------------------------------------------------------------- traced run

SCALED = ("spectra.sup_distance.points", "linalg.eig.calls", "sampling.draw.calls",
          "peak_rss_mb", "wall_s")


PER_LAYER = {
    **{f"{name}.{kind}": unit for name in TRACED
       for kind, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))},
    "linalg.eig.order3": "count", "linalg.eig.max_order": "count",
    "sampling.extract.bytes": "bytes", "spectra.sup_distance.points": "count",
    "montecarlo.distinct_ratio": "ratio", "oracle.subsets": "count",
    "oracle.solves_per_subset": "ratio", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    **{f"scale2x.{name}": "ratio" for name in SCALED},
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer counts and times from one traced job's spans.

    Self time is a span's duration minus its children's; total time counts
    only spans with no enclosing span of the same name."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    order3 = max_order = mc_draws = mc_solves = oracle_solves = 0
    for i, (name, start, end, parent, _, amount) in enumerate(spans):
        enclosing = []
        while parent >= 0:
            enclosing.append(spans[parent][0])
            parent = spans[parent][3]
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        if name not in enclosing:
            total_s[name] += end - start
        work[name] += amount
        if name == "linalg.eig":
            order3 += amount ** 3
            max_order = max(max_order, amount)
        elif name in ("sampling.draw", "sampling.subset_spectrum"):
            layers = {outer.split(".")[0] for outer in enclosing}
            if name == "sampling.draw":
                mc_draws += "montecarlo" in layers
            else:
                mc_solves += "montecarlo" in layers
                oracle_solves += "oracle" in layers
    metrics: dict[str, float] = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.total_s"] = total_s[name]
    subsets = trace["oracle_subsets"]
    metrics.update({
        "linalg.eig.order3": order3,
        "linalg.eig.max_order": max_order,
        "sampling.extract.bytes": work["sampling.extract"],
        "spectra.sup_distance.points": work["spectra.sup_distance"],
        "montecarlo.distinct_ratio": mc_solves / mc_draws if mc_draws else 0.0,
        "oracle.subsets": subsets,
        "oracle.solves_per_subset": oracle_solves / subsets if subsets else 0.0,
        "cli.self_s": self_s["cli"],
        "trace.wall_s": trace["wall_s"],
        "trace.spans": len(spans),
    })
    return metrics


def traced_run(runner: Runner, workload: Workload, size: dict, seed: int,
               workload_name: str) -> tuple[list[Job], dict, dict]:
    argv = workload.argv(size, seed)
    plain = runner.run_job(workload, size, argv)
    traced = runner.run_job(workload, size, argv, trace_id=f"{workload_name}-{seed}-1x")
    jobs = [plain, traced]
    doubled = None
    if workload.scales:
        doubled = runner.run_job(workload, size, workload.argv(size, seed, factor=2),
                                 trace_id=f"{workload_name}-{seed}-2x")
        jobs.append(doubled)
    mark_divergent(jobs)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    detail: dict = {}
    if traced.spans is None:
        return jobs, metrics, detail
    metrics.update(layer_metrics(traced.spans))
    metrics["cli.output_bytes"] = traced.output_bytes
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    if doubled is not None and doubled.spans is not None:
        once = {**metrics, "peak_rss_mb": traced.peak_rss_mb, "wall_s": traced.wall_s}
        twice = {**layer_metrics(doubled.spans), "peak_rss_mb": doubled.peak_rss_mb,
                 "wall_s": doubled.wall_s}
        detail["scaling"] = {name: {"1x": once[name], "2x": twice[name]} for name in SCALED}
        for name in SCALED:
            metrics[f"scale2x.{name}"] = twice[name] / once[name] if once[name] else 0.0
    return jobs, metrics, detail


# ---------------------------------------------------------------- entry point

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= HARD_LIMIT_S - 30:
        parser.error(f"--seconds must lie in (0, {HARD_LIMIT_S - 30:g}]")
    return args


def main(argv: list[str] | None = None, sizes: dict = FULL) -> int:
    args = parse_args(argv)
    if not (SRC / "subspec" / "cli.py").is_file():
        print(f"perfbench: no subspec sources under {SRC}", file=sys.stderr)
        return 2
    workload, size = WORKLOADS[args.workload], sizes[args.workload]
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            runner = Runner(Path(scratch), time.monotonic() + HARD_LIMIT_S)
            if args.trace:
                jobs, metrics, detail = traced_run(runner, workload, size, args.seed,
                                                   args.workload)
                units = PER_LAYER
            else:
                jobs, metrics, detail = timed_run(runner, workload, size, args.seed,
                                                  args.seconds)
                units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    failed = sum(not job.ok for job in jobs)
    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "host": provenance(), "failed_frac": failed / len(jobs),
                   "jobs": [job.record() for job in jobs]})
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(jobs), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
