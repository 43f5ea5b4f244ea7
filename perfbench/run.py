#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and the benchmark driver
from source, runs one workload, checks its output, and prints one JSON
result as the last line of standard output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run it from the repository root. The build goes to syncron_perfbench/ under
$CARGO_TARGET_DIR (default .bench_build) and per-run records (detailed
results, spans) to .bench_out, both under the repository root. The
workloads and metrics are declared in BENCHMARK.json, the only list of
them: the result lists its metrics in that file's order, with 0 for a
per-layer metric the workload does not exercise. A run whose driver
misses an end-to-end metric, or sets a metric or unit the file does not
declare, fails without a result.

--self-check plants failures (a wrong expected lock-acquire count on
ds_closed, a wrong expected issued + dropped count on openloop_slo, a
truncated trace file) and verifies that each one is counted as failed, then
checks the metric names of both modes against BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
# A run measures for --seconds, then spends at most about as long again
# on its last round, the reference samples and (traced) calibration.
RUN_MARGIN_S = 110
MAX_SECONDS = 3600


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole
    group and waits for it, so no child outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def build():
    """Configures and builds the driver; returns its path. Configuring
    every time is cheap once done, and CMake fails loudly when the build
    directory was made for another source tree."""
    if not (ROOT / "src" / "harness" / "runner.hh").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "syncron_perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, out, _ = run_group(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        BUILD_TIMEOUT_S, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail("cmake configure failed")
    code, out, _ = run_group(
        ["cmake", "--build", str(build_dir), "-j", jobs],
        BUILD_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail("build failed")
    return build_dir / "perfbench"


def declared(mode_trace):
    """(name, unit) pairs BENCHMARK.json declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if mode_trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]], \
        [w["name"] for w in spec["workloads"]]


def check_result(line, trace):
    """Parses the driver's last line and puts its metrics in
    BENCHMARK.json's order, with 0 for an unset per-layer metric;
    returns the result or exits."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line[:200]!r}", 3)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)} are not the contract's", 3)
    metrics, _ = declared(trace)
    units = dict(metrics)
    got = result["metrics"]
    undeclared = sorted(f"{n} [{m['unit']}]" for n, m in got.items()
                        if units.get(n) != m["unit"])
    missing = sorted(n for n in units if n not in got)
    if undeclared or (missing and not trace):
        fail(f"metrics differ from BENCHMARK.json: undeclared {undeclared}, "
             f"missing {missing}", 3)
    result["metrics"] = {
        n: got.get(n, {"value": 0, "unit": unit}) for n, unit in metrics}
    return result


def run_driver(binary, workload, seed, seconds, trace, plant="none"):
    """Runs one workload; returns (stdout lines, parsed result)."""
    out_dir = ROOT / ".bench_out"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir), "--plant", plant]
    code, out, err = run_group(cmd, 2 * seconds + RUN_MARGIN_S, cwd=ROOT,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"driver exited with code {code}")
    return lines, check_result(lines[-1], trace)


def self_check(binary):
    """Planted failures must be counted; metric names must match."""
    ok = True
    for workload, plant in [("ds_closed", "wrong-count"),
                            ("openloop_slo", "wrong-count"),
                            ("trace_observe", "corrupt-trace")]:
        _, r = run_driver(binary, workload, 1, 1, 0, plant)
        caught = r["failed"] > 0 and not r["correct"]
        ok &= caught
        print(f"planted {plant} on {workload}: failed {r['failed']} of "
              f"{r['attempted']} -> {'caught' if caught else 'MISSED'}")
    for trace in (0, 1):
        _, r = run_driver(binary, "openloop_slo", 1, 1, trace)
        clean = r["correct"] and r["failed"] == 0
        ok &= clean
        print(f"names and units of --trace {trace} match BENCHMARK.json; "
              f"clean run: {clean}")
    _, workloads = declared(False)
    print(f"workloads declared: {', '.join(workloads)}")
    return 0 if ok else 1


def main():
    # A terminated run still kills and reaps its child process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    if args.self_check:
        sys.exit(self_check(build()))
    _, workloads = declared(False)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 0 < args.seconds <= MAX_SECONDS:
        fail(f"--seconds must be in (0, {MAX_SECONDS}]")
    binary = build()
    lines, result = run_driver(binary, args.workload, args.seed,
                               args.seconds, args.trace)
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)


if __name__ == "__main__":
    main()
