#!/usr/bin/env python3
"""Build and run the MPCX benchmark; print one result line.

    python3 perfbench/run.py --workload cg_shm|p2p_tcp|coll_hyb \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the MPCX libraries from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only re-check the build. Build output goes to stderr.

With --trace 0 the end-to-end metrics of BENCHMARK.json are measured with
all instrumentation off. With --trace 1 the library counters and the
benchmark's spans are on, and the per-layer metrics are reported; the
tracing overhead (traced minus untraced end-to-end numbers, against the
latest untraced result of the same workload) goes to stderr and the
result file.

Every run writes a full result file (every metric with unit, median,
quartiles and sample count; host fingerprint; floor numbers; git rev) to
.bench_build/perfbench-results/, which compare.py reads. The last line
of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
WORKLOADS = ("cg_shm", "p2p_tcp", "coll_hyb")
PROGRAM_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 850


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure once, then (re)build the benchmark program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"MPCX sources not found under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(PKG), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))])
    return out / "perfbench"


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"build step failed ({proc.returncode}): {' '.join(cmd)}", 3)


def run_program(cmd, env):
    """Run the benchmark program in its own process group; kill the group
    on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                            cwd=ROOT, start_new_session=True, text=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    try:
        stdout, _ = proc.communicate(timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"benchmark program exceeded {PROGRAM_TIMEOUT_S} s and was killed", 4)
    if proc.returncode != 0:
        die(f"benchmark program failed with exit code {proc.returncode}", 4)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        die("benchmark program printed no result", 4)
    return json.loads(lines[-1])


def host_fingerprint(notes):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "compiler": notes.get("host.compiler", "unknown"),
        "build_type": notes.get("host.build_type", "unknown"),
        "python": platform.python_version(),
    }


def git_rev():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def latest_untraced(results, workload):
    best = None
    for path in results.glob(f"{workload}-seed*-trace0-*.json"):
        if best is None or path.stat().st_mtime > best.stat().st_mtime:
            best = path
    if best is None:
        return None
    with open(best) as f:
        return json.load(f)


def tracing_overhead(measured, untraced, names):
    if untraced is None:
        return {"note": "no untraced result of this workload yet; run --trace 0 first"}
    out = {}
    for name in names:
        traced = measured.get(name, {}).get("value")
        base = untraced["metrics"].get(name, {}).get("value")
        if traced is None or not base:
            continue
        out[name] = {"traced": traced, "untraced": base, "delta": traced - base,
                     "relative": (traced - base) / base}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test only: perturb every expected result so each check must fail.
    parser.add_argument("--corrupt-expect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} not found")
    with open(spec_path) as f:
        spec = json.load(f)

    out = build_dir()
    program = build(out)
    results = out.parent / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.time_ns()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"

    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(results / f"{stem}.spans.jsonl")]
    if args.corrupt_expect:
        cmd.append("--corrupt-expect")
    # The library reads MPCX_* knobs from the environment; run it on defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPCX_")}
    started = time.time()
    raw = run_program(cmd, env)

    group = "per_layer" if args.trace else "end_to_end"
    wanted = spec[group]
    problems = []
    line_metrics = {}
    for entry in wanted:
        got = raw["metrics"].get(entry["name"])
        if got is None or got["value"] is None:
            problems.append(f"metric {entry['name']} missing")
            continue
        if got["unit"] != entry["unit"]:
            problems.append(f"metric {entry['name']} unit {got['unit']} != {entry['unit']}")
        if group == "end_to_end" and not (math.isfinite(got["value"]) and got["value"] > 0):
            problems.append(f"metric {entry['name']} is {got['value']}")
        line_metrics[entry["name"]] = {"value": got["value"], "unit": entry["unit"]}
    for name, check in raw["checks"].items():
        if not check["ok"]:
            problems.append(f"check {name}: {check['detail']}")
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    correct = not problems and failed == 0 and attempted > 0

    notes = raw["notes"]
    record = {
        "schema": "perfbench-result/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "started_unix": started,
        "wall_s": time.time() - started,
        "git_rev": git_rev(),
        "host": host_fingerprint(notes),
        "floor": {k: v["value"] for k, v in raw["metrics"].items() if k.startswith("floor.")},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "checks": raw["checks"],
        "metrics": raw["metrics"],
        "notes": notes,
    }
    if args.trace:
        names = [m["name"] for m in spec["end_to_end"]]
        record["tracing_overhead"] = tracing_overhead(
            raw["metrics"], latest_untraced(results, args.workload), names)
    with open(results / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, m in sorted(raw["metrics"].items()):
        if m["group"] == group:
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']:8s} "
                  f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}, {m['stat']}]",
                  file=sys.stderr)
    if args.trace:
        print("tracing overhead (traced - untraced):", file=sys.stderr)
        for name, o in record["tracing_overhead"].items():
            if isinstance(o, dict):
                print(f"  {name:40s} {o['delta']:+12.6g} ({o['relative']:+.1%})", file=sys.stderr)
            else:
                print(f"  {o}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": line_metrics}))


if __name__ == "__main__":
    main()
