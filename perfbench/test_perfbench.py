"""Tests of the benchmark itself, on the seconds-long SMOKE sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

COUNTS = ("calls", "order3", "max_order", "bytes", "points", "distinct_ratio", "subsets",
          "solves_per_subset", "output_bytes", "spans")


def _runner(tmp_path: Path) -> run.Runner:
    return run.Runner(tmp_path, time.monotonic() + run.HARD_LIMIT_S)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _benchmark() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tracing_leaves_output_bytes_unchanged(tmp_path, name):
    jobs, metrics, _ = run.traced_run(_runner(tmp_path), run.WORKLOADS[name],
                                      run.SMOKE[name], 5, name)
    plain, traced = jobs[:2]
    assert all(job.ok for job in jobs), [job.problems for job in jobs]
    assert traced.spans is not None and plain.spans is None
    assert plain.sha256 == traced.sha256
    assert metrics["cli.output_bytes"] == plain.output_bytes > 0


@pytest.mark.parametrize("name", ["estimate-rw", "oracle-rw", "verify-walk"])
def test_exact_counts_repeat_across_traced_runs(tmp_path, name):
    runs = [run.traced_run(_runner(tmp_path), run.WORKLOADS[name], run.SMOKE[name], 7,
                           name)[1] for _ in range(2)]
    counts = [{key: value for key, value in metrics.items()
               if key.rsplit(".", 1)[-1] in COUNTS or key.startswith("scale2x.")
               and not key.endswith(("wall_s", "peak_rss_mb"))} for metrics in runs]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eig.calls"] > 0


def test_failing_job_is_counted_and_not_timed(tmp_path):
    runner = _runner(tmp_path)
    workload, size = run.WORKLOADS["verify-walk"], {"n": [3]}
    good = ["verify", "--n", "3"]
    jobs = [runner.run_job(workload, size, good),
            runner.run_job(workload, size, good + ["--self-test-corrupt"]),
            runner.run_job(workload, size, good)]
    run.mark_divergent(jobs)
    assert [job.ok for job in jobs] == [True, False, True]
    assert jobs[1].rc == 1 and "exit code 1" in jobs[1].problems[0]
    stats = run.end_to_end_stats(jobs, setup=[0.1])
    assert stats["wall_s"]["n"] == 2
    assert stats["wall_s"]["median"] == pytest.approx((jobs[0].wall_s + jobs[2].wall_s) / 2)


def test_divergent_output_fails_the_minority(tmp_path):
    jobs = [run.Job(argv=["x"], rc=0, problems=[], sha256=digest) for digest in "aab"]
    run.mark_divergent(jobs)
    assert [job.ok for job in jobs] == [True, True, False]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_result_line_matches_benchmark_json(capsys, name, trace):
    rc = run.main(["--workload", name, "--seed", "11", "--seconds", "1",
                   "--trace", str(trace)], sizes=run.SMOKE)
    lines = capsys.readouterr().out.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in declared] == [
        (key, value["unit"]) for key, value in result["metrics"].items()]
    assert detail["host"]["nproc"] >= 1 and detail["host"]["numpy"]
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())
        assert detail["probe_s"] > 0
    assert not (run.ROOT / ".perfbench_tmp").exists()


def test_traced_shape_on_smoke(capsys):
    run.main(["--workload", "oracle-rw", "--seed", "0", "--trace", "1"], sizes=run.SMOKE)
    metrics = {k: v["value"] for k, v in _last_json(capsys.readouterr().out)["metrics"].items()}
    assert metrics["oracle.subsets"] == 56  # C(8, 3)
    assert metrics["oracle.solves_per_subset"] == 4.0
    run.main(["--workload", "estimate-rw", "--seed", "0", "--trace", "1"], sizes=run.SMOKE)
    metrics = {k: v["value"] for k, v in _last_json(capsys.readouterr().out)["metrics"].items()}
    assert metrics["linalg.eig.calls"] == 66  # 60 reference draws + 6 samples
    assert metrics["montecarlo.distinct_ratio"] == 1.0
    assert metrics["scale2x.linalg.eig.calls"] == 2.0
    assert metrics["linalg.eig.max_order"] == 12


def test_child_environment_and_flags(monkeypatch):
    monkeypatch.setenv("SUBSPEC_THREADS", "2")
    env = run.child_env()
    assert not any(key.startswith("SUBSPEC_") for key in env)
    assert env["PYTHONPATH"] == str(run.SRC)
    for name, workload in run.WORKLOADS.items():
        argv = workload.argv(run.FULL[name], 3)
        assert not any(flag in argv for flag in ("--threads", "--out", "--cap", "--format"))


def test_halfones_law_matches_package_oracle():
    sys.path.insert(0, str(run.SRC))
    try:
        from subspec.oracle import halfones_exact_mean
    finally:
        sys.path.remove(str(run.SRC))
    mean, sd, frac_sd = run.halfones_deviation_law(1024, 256)
    assert mean == pytest.approx(halfones_exact_mean(1024, 256), rel=1e-12)
    assert 0 < sd < 0.05 and 0 < frac_sd < 0.05


def test_checks_reject_wrong_outputs():
    estimate = {"report": {"F_hat": {"cum": [0.5, 1.0]}, "mean_supnorm": 0.1,
                           "n_samples": 500},
                "mean_bound": 3.0, "tail_violations": []}
    assert run._check_estimate(estimate, {}) == []
    assert run._check_estimate({**estimate, "tail_violations": [{"r": 0.0}]}, {})
    assert run._check_halfones(estimate, {"n": 1024, "k": 256})
    oracle = {"supnorm_distribution": {"probabilities": [0.25, 0.75]},
              "exact_F": {"jumps": [1.0, 2.0], "cum": [0.4, 1.0]},
              "pointwise": [{"x": 1.5, "F": 0.4}, {"x": 0.5, "F": 0.0}]}
    assert run._check_oracle(oracle, {}) == []
    assert run._check_oracle({**oracle, "pointwise": [{"x": 2.0, "F": 0.4}]}, {})
    assert run._check_verify({"pass": False}, {})


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-rw",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
