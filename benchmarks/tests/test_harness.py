"""Self-test of the benchmark harness on a tiny case list (a few seconds).

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from cases import TINY  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def bench(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, str(Path("benchmarks") / "run.py"), "--workload", "tiny",
         "--seed", "0", "--seconds", "0", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def report_and_result(trace: int):
    proc = bench("--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_untraced_run_prints_every_metric_with_its_unit():
    report, result = report_and_result(0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    expected = {**run.END_TO_END, "kmatrix_s": "s", "blocks_s": "s", "verify_s": "s",
                "enumerate_s": "s", "failed_frac": "ratio"}
    printed = {line.split()[0]: line.split()[-1] for line in report}
    assert {name: printed.get(name) for name in expected} == expected
    assert float(next(line for line in report if line.startswith("failed_frac")).split()[1]) == 0


def test_traced_runs_report_every_layer_metric_and_repeat_their_counts():
    _, first = report_and_result(1)
    _, second = report_and_result(1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(LAYER_METRICS)
    counts = [k for k, (unit, _) in LAYER_METRICS.items() if unit in ("count", "bytes")]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts
    }
    assert first["metrics"]["oracle.claims"]["value"] > 0
    assert first["metrics"]["lr.lr_coefficient_calls"]["value"] > 0


def test_wrong_reference_digest_turns_the_case_into_a_failure():
    digests = json.loads((BENCH / "digests.json").read_text())
    case = TINY.pools[0][0]
    digests[case.key] = "0" * 64
    result = run.measure(TINY, 0, 0, False, digests)
    assert result["failed"] == 1 and not result["correct"]
    assert result["failures"][0].startswith(case.key)
    assert result["failed_frac"] == 1 / result["attempted"]


def test_invariants_reject_a_changed_value():
    case = TINY.pools[0][0]
    good = run.run_child(run.case_command(case), timeout=60).stdout
    assert checks.invariant_error(case, good) is None
    payload = json.loads(good)
    payload["entries"][0][2] += 1
    assert "degree identity" in checks.invariant_error(case, json.dumps(payload).encode())


def test_fails_without_a_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()
    ]
    digests = json.loads((BENCH / "digests.json").read_text())
    pool = [c.key for w in [*run.WORKLOADS.values(), TINY] for c in w.all_cases()]
    assert sorted(pool) == sorted(digests)
