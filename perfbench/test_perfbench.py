"""Self-test of the benchmark on a short configuration.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs traced three times in fresh processes (``--seconds 1``:
one cycle untraced, the same cycle traced): twice on one seed, once on a
held-out seed.  The count metrics must repeat exactly for one seed, the
held-out seed must produce the same op mix, and the layer self times plus
the benchmark's glue must add up to the traced op wall time.  Takes a few
minutes, most of it in ``verify_all``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED, HELD_OUT = 11, 90210
COUNT_SUFFIXES = (".calls", ".errors", ".cells", ".bytes")
COUNT_NAMES = ("cli.verify.checks", "cli.verify.checks_failed", "ambiguity.cells_used_ratio")


def _run(cwd: Path, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    return json.loads(info_line), json.loads(result_line)


def _counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES) or k in COUNT_NAMES}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_and_op_mix_holds(workload):
    info_a, res_a = _traced(workload, SEED)
    info_b, res_b = _traced(workload, SEED)
    info_c, res_c = _traced(workload, HELD_OUT)
    for res in (res_a, res_b, res_c):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == {name for name, _ in spans.per_layer_spec()}
    assert _counts(res_a) == _counts(res_b)
    assert info_a["op_mix"] == info_c["op_mix"]
    calls = {k: v for k, v in _counts(res_a).items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in _counts(res_c).items() if k.endswith(".calls")}

    m = {k: v["value"] for k, v in res_a["metrics"].items()}
    layer_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) + m["trace.glue_s"]
    assert layer_sum == pytest.approx(m["trace.op_s"], rel=1e-9)


def test_end_to_end_result_line():
    proc = _run(ROOT, "--workload", "text_io", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert result["correct"] and result["attempted"] >= 20
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_thread_knob():
    env = dict(os.environ, MIMO_AMBIG_THREADS="1")
    proc = _run(ROOT, "--workload", "text_io", "--seed", "0", "--seconds", "1",
                "--trace", "0", env=env)
    assert proc.returncode == 2 and proc.stdout == ""


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "af_large", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
