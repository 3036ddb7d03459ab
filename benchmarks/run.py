"""wreathdec benchmark: closed-loop wall time of whole CLI invocations.

    python3 benchmarks/run.py --workload labels --seed 0 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
client runs the workload's cases one after another, each in a fresh Python
child process, and repeats the whole pass while another pass fits in
``--seconds`` (at least one pass).  Every output is checked against its
reference digest and its subcommand's invariant (``checks.py``) between
cases, outside the timed window.

``--trace 0`` reports the end-to-end metrics: medians over passes of the
pass wall time and of the two case groups, the median of several cold
``import wreathdec.cli`` runs (``setup_s``), and the largest child RSS.
``--trace 1`` runs the same cases once in this process untraced and once
traced (``tracing.py``) and reports the per-layer metrics and the tracing
overhead.

The last stdout line is the JSON result; the lines before it print every
metric by name and unit.  A result file with run metadata, and for traced
runs the spans, go to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
OUT_FILE = RESULTS / "case.out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from cases import TINY, WORKLOADS, Case, Workload  # noqa: E402

perf = time.perf_counter

SETUP_SAMPLES = 15
CASE_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # a run must exit within 180 s

END_TO_END = {
    "wall_s": "s",
    "cmd_a_s": "s",
    "cmd_b_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int
    timed_out: bool


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(cmd: list[str], timeout: float) -> ChildResult:
    """Spawn `cmd`, read its stdout to the end and reap it with wait4, so the
    time runs from spawn to exit and the RSS is this child's own."""
    killed = threading.Event()
    start = perf()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    stderr = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode, stdout, stderr[0], seconds, usage.ru_maxrss, killed.is_set()
    )


def case_command(case: Case) -> list[str]:
    if case.program == "enumerate":
        return [sys.executable, str(HERE / "enumerate_classes.py"), *case.args]
    cmd = [sys.executable, "-m", "wreathdec.cli", *case.args]
    return cmd + ["--out", str(OUT_FILE)] if case.to_file else cmd


def case_output(case: Case, stdout: bytes) -> bytes:
    if not case.to_file:
        return stdout
    data = OUT_FILE.read_bytes() if OUT_FILE.exists() else b""
    OUT_FILE.unlink(missing_ok=True)
    return data


class Tally:
    """Attempts, failures and the reasons for them."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self.checked: set[str] = set()
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, case: Case, code: int, data: bytes, timed_out=False, stderr=b""):
        self.attempted += 1
        if timed_out:
            error = "timed out"
        elif code != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            error = f"exit code {code}" + (f": {tail[0]}" if tail else "")
        else:
            error = checks.check(case, data, self.digests, self.checked)
        if error:
            self.failures.append(f"{case.key}: {error}")


def timed_run(workload: Workload, seed: int, seconds: float, digests) -> dict:
    begin = perf()
    tally = Tally(digests)
    cases = workload.cases(seed)

    def remaining() -> float:
        return max(1.0, min(CASE_TIMEOUT_S, RUN_LIMIT_S - (perf() - begin)))

    setup = []
    for _ in range(SETUP_SAMPLES):
        res = run_child([sys.executable, "-c", "import wreathdec.cli"], remaining())
        setup.append(res.seconds)
        tally.attempted += 1
        if res.code != 0:
            tally.failures.append(f"import wreathdec.cli: exit code {res.code}")

    passes: list[dict[str, float]] = []
    peak_kb = 0
    start = perf()
    while True:
        times = dict.fromkeys((c.metric for c in cases), 0.0)
        for case in cases:
            res = run_child(case_command(case), remaining())
            times[case.metric] += res.seconds
            peak_kb = max(peak_kb, res.maxrss_kb)
            tally.record(case, res.code, case_output(case, res.stdout), res.timed_out, res.stderr)
        passes.append(times)
        elapsed = perf() - start
        next_pass = elapsed / len(passes)
        if elapsed + next_pass > seconds or perf() - begin + next_pass > RUN_LIMIT_S:
            break

    def median(metric):
        return statistics.median(p.get(metric, 0.0) for p in passes)

    a, b = workload.slots
    metrics = {
        "wall_s": statistics.median(sum(p.values()) for p in passes),
        "cmd_a_s": median(a),
        "cmd_b_s": median(b),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "subcommands": {m: median(m) for m in times},
        "slots": {"cmd_a_s": a, "cmd_b_s": b},
        "passes": passes,
        "setup_samples": setup,
        "tally": tally,
    }


def run_in_process(case: Case) -> tuple[int, bytes, float]:
    """Run a case's entry point in this process; returns exit code, output
    and wall seconds."""
    if case.program == "enumerate":
        entry = importlib.import_module("enumerate_classes").main
    else:
        entry = importlib.import_module("wreathdec.cli").main
    argv = list(case.args) + (["--out", str(OUT_FILE)] if case.to_file else [])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        start = perf()
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        seconds = perf() - start
    return code, case_output(case, stdout.getvalue().encode()), seconds


def traced_run(workload: Workload, seed: int, digests, spans_path: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import tracing

    tally = Tally(digests)
    cases = workload.cases(seed)
    untraced = 0.0
    for case in cases:
        tracing.clear_caches()
        code, data, seconds = run_in_process(case)
        untraced += seconds
        tally.record(case, code, data)

    tracer = tracing.Tracer()
    traced = 0.0
    out_bytes = 0
    with tracer.installed():
        for i, case in enumerate(cases):
            with tracer.run(f"{i}:{case.key}"):
                code, data, seconds = run_in_process(case)
            traced += seconds
            out_bytes += len(data)
            tally.record(case, code, data)

    values = tracing.layer_values(tracer, out_bytes)
    values["trace.wall_s"] = traced
    values["trace.untraced_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    fields = ("id", "name", "start", "end", "parent", "run")
    spans_path.write_text(json.dumps([dict(zip(fields, s)) for s in tracer.spans]) + "\n")
    if tracer.missing:
        print(f"warning: not traced (not found): {', '.join(tracer.missing)}", file=sys.stderr)
    return {
        "metrics": {
            k: {"value": values[k], "unit": unit}
            for k, (unit, _) in tracing.LAYER_METRICS.items()
        },
        "not_traced": tracer.missing,
        "tally": tally,
    }


def metadata(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in (SRC / "wreathdec").glob("*.py")
        ),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, digests) -> dict:
    """Run the workload and return the result record (without printing)."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    if trace:
        result = traced_run(workload, seed, digests, RESULTS / f"{stem}-spans.json")
    else:
        result = timed_run(workload, seed, seconds, digests)
    tally = result.pop("tally")
    result.update(
        workload=workload.name,
        trace=trace,
        meta=metadata(seed),
        correct=not tally.failures,
        attempted=tally.attempted,
        failed=len(tally.failures),
        failed_frac=len(tally.failures) / max(tally.attempted, 1),
        failures=tally.failures,
    )
    path = RESULTS / f"{stem}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def report_lines(result: dict) -> list[str]:
    lines = [f"workload {result['workload']}  seed {result['meta']['seed']}  "
             f"commit {result['meta']['commit']}  src_lines {result['meta']['src_lines']}"]
    for name, m in result["metrics"].items():
        label = f"{name} ({result['slots'][name]})" if name in result.get("slots", {}) else name
        lines.append(f"{label:44s} {m['value']:14.6f} {m['unit']}")
    for name, value in result.get("subcommands", {}).items():
        lines.append(f"{name:44s} {value:14.6f} s")
    if "passes" in result:
        lines.append(f"{'passes':44s} {len(result['passes']):14d} count")
    lines.append(f"{'failed_frac':44s} {result['failed_frac']:14.6f} ratio")
    lines += [f"FAILED {f}" for f in result["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, TINY.name])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wreathdec" / "cli.py").is_file():
        print(f"error: no wreathdec sources under {SRC}", file=sys.stderr)
        return 2
    digests = json.loads((HERE / "digests.json").read_text())
    workload = WORKLOADS.get(args.workload, TINY)
    result = measure(workload, args.seed, args.seconds, bool(args.trace), digests)

    for line in report_lines(result):
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
