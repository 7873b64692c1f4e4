"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

with open(run.ROOT / "BENCHMARK.json") as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_one_op_traced_smoke(workload):
    result = _result(_bench("--workload", workload, "--seed", "0",
                            "--seconds", "0", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["trace.coverage"]["value"] >= run.MIN_COVERAGE
    assert metrics["counts.drifted"]["value"] == 0
    assert metrics["cli.cli_main.calls"]["value"] == len(WORKLOADS[workload].steps(0, ""))


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_bench("--workload", "paper-n11", "--seconds", "0", "--trace", "0"))
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_certificate_fails_the_verify_cert_op(tmp_path):
    sys.path.insert(0, str(run.SRC))
    try:
        cli = run._import_cli()
    finally:
        sys.path.remove(str(run.SRC))
    steps = WORKLOADS["cert-g15"].steps(0, str(tmp_path))
    assert run.run_op(cli, steps).problems == []
    cert_path = tmp_path / "cert-G15.json"
    cert = json.loads(cert_path.read_text())
    cert["ops"][0]["matrix"][0][1] += 1
    cert_path.write_text(json.dumps(cert))
    problems = run.run_op(cli, steps[1:]).problems
    assert problems and all(p.startswith("verify-cert:") for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "paper-n11", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_keeps_samples_beyond_it():
    assert run.tail([3.0]) == (3.0, 100.0)
    assert run.tail([float(i) for i in range(5)]) == (3.0, 75.0)
    value, pct = run.tail([float(i) for i in range(101)])
    assert (value, pct) == (90.0, 90.0)


def test_tracer_skips_a_function_that_is_gone(monkeypatch):
    import tracer

    sys.path.insert(0, str(run.SRC))
    try:
        cli = run._import_cli()
    finally:
        sys.path.remove(str(run.SRC))
    monkeypatch.setattr(tracer, "TRACED", [("cli", "cli_main"), ("cli", "gone")])
    original = cli.cli_main
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.cli_main is not original
    finally:
        t.uninstall()
    assert cli.cli_main is original
    assert t.missing == {"cli.gone"}
