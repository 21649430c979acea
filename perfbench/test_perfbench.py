"""The benchmark's own checks: its output schema and metric names, and that
its inputs are the acceptance tests' definitions.  No timing is asserted."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0",
                             "--seconds", "0.01", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def _assert_names(metrics, spec):
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in spec}
    for v in metrics.values():
        assert isinstance(v["value"], (int, float))


def test_end_to_end_schema():
    metrics = _result(_run("corpus", 0))
    _assert_names(metrics, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_schema():
    proc = _run("saturated", 1)
    _assert_names(_result(proc), SPEC["per_layer"])
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    for key in ("nproc", "python", "platform", "seed", "attempted", "failed", "fingerprint"):
        assert key in report


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("corpus", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_match_acceptance_definitions():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import itertools

    import test_acceptance as acc
    import workloads

    for i in range(12):
        for proto in workloads.Faulted.protocols:
            assert workloads.faulted_cfg(proto, i) == acc._faulted_cfg(proto, i)
    first = list(itertools.islice(acc._corpus(), 20_000))
    assert list(itertools.islice(workloads.corpus(), 20_000)) == first
    for ops1, ops2 in first[::997]:
        built = workloads.build_history(ops1, ops2)
        assert built.events == acc._build_history(ops1, ops2, "serial").events
