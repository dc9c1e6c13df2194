#!/usr/bin/env python3
"""Builds and runs the CrossMine benchmark.

One run, from the root of the repository:

    python3 perfbench/run.py --workload synth_t20k --seed 1 --seconds 28 --trace 0

builds `perfbench` and the `crossmine` CLI (the shard worker binary) from the
sources under `src/` into `$CARGO_TARGET_DIR` (default `.bench_build`), runs
one workload and relays its output; the last stdout line is the JSON result.

    python3 perfbench/run.py --self-check [--workload NAME]

runs every workload (or one) untraced once and traced twice, prints each
end-to-end metric with its unit, and checks that both traced runs report the
same deterministic counters and model crc32, that every metric named in
BENCHMARK.json is reported, and that the span file was written. It also
prints the traced run's own overhead against the untraced one.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["synth_t20k", "fin_numeric", "synth_shard4"]
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no CrossMine sources under {ROOT}/src; nothing to build")
        sys.exit(2)
    out = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, f"-j{BUILD_JOBS}",
                  "--target", "perfbench", "crossmine_cli"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return out


def run_once(bindir, workload, seed, seconds, trace, data_seed=None):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "perfbench")
    cmd = [os.path.join(bindir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--out-dir", os.path.join(work, f"run-{workload}-{os.getpid()}"),
           "--trace-dir", os.path.join(work, "traces"),
           "--crossmine", os.path.join(bindir, "crossmine")]
    if data_seed is not None:
        cmd += ["--data-seed", str(data_seed)]
    # A session of its own, so a timeout can stop shard workers too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload} timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def line_with(lines, prefix):
    return next((l for l in lines if l.startswith(prefix)), "")


def e2e_lines(lines):
    """The `e2e: name=value unit` lines a run prints, as {name: value}."""
    vals = {}
    for line in lines:
        m = re.match(r"e2e: (\w+)=(\S+)", line)
        if m:
            vals[m.group(1)] = float(m.group(2))
    return vals


def self_check(bindir, workloads, seed, seconds):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    ok = True

    def fail(msg):
        nonlocal ok
        ok = False
        print(f"FAIL {msg}")

    for wl in workloads:
        code, plain = run_once(bindir, wl, seed, seconds, trace=False)
        r = parse_result(plain)
        if code != 0 or r is None:
            fail(f"{wl}: untraced run exited {code} without a result")
            continue
        print(f"== {wl} (seed {seed}, {seconds} s)")
        print("  " + line_with(plain, "host:"))
        print("  " + line_with(plain, "serve:"))
        for name, m in sorted(r["metrics"].items()):
            print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
        if not r["correct"] or r["failed"]:
            fail(f"{wl}: correct={r['correct']} failed={r['failed']}")
        if set(r["metrics"]) != e2e_names:
            fail(f"{wl}: end-to-end metrics differ from BENCHMARK.json")

        traced = []
        for _ in range(2):
            code, lines = run_once(bindir, wl, seed, seconds, trace=True)
            t = parse_result(lines)
            if code != 0 or t is None:
                fail(f"{wl}: traced run exited {code} without a result")
                break
            traced.append((lines, t))
        if len(traced) < 2:
            continue
        (lines1, t1), (lines2, _) = traced
        if set(t1["metrics"]) != layer_names:
            fail(f"{wl}: per-layer metrics differ from BENCHMARK.json")
        c1, c2 = line_with(lines1, "counters:"), line_with(lines2, "counters:")
        if not c1 or c1 != c2:
            fail(f"{wl}: deterministic counters differ between traced runs:\n"
                 f"  {c2}")
        crc = re.search(r"crc32=(\w+)", line_with(plain, "model:"))
        if not crc or f"model.crc32={crc.group(1)}" not in c1:
            fail(f"{wl}: traced and untraced runs trained different models")
        if "spans ->" not in line_with(lines1, "trace:"):
            fail(f"{wl}: no span file written")
        print("  " + c1)
        print("  " + line_with(lines1, "trace:"))
        # Traced-run overhead, from the e2e lines it prints beside its JSON.
        a, b = e2e_lines(plain), e2e_lines(lines1)
        for name in ("train_s", "serve_p50_ms"):
            if a.get(name):
                print(f"  trace overhead {name}: {b.get(name, 0) / a[name] - 1:+.1%}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=json.load(
        open(os.path.join(ROOT, "BENCHMARK.json")))["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--data-seed", type=int,
                    help="database seed (default: 29 synthetic, 7 financial)")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")

    bindir = build()
    if args.self_check:
        wls = [args.workload] if args.workload else WORKLOADS
        return self_check(bindir, wls, args.seed, args.seconds)
    code, lines = run_once(bindir, args.workload, args.seed, args.seconds,
                           bool(args.trace), args.data_seed)
    for line in lines:
        print(line)
    if code != 0 or parse_result(lines) is None:
        log(f"{args.workload} failed (exit {code})")
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
