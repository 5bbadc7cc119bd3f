#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload interactive --seed 7 --seconds 10 --trace 0

Builds the daemons under test and the load generator from the checkout's
sources into .bench_build/ (Release), runs the load generator, and prints two
lines: a report (environment, sample counts, run flags) and, last, one
JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. The exit code is non-zero when the build
fails, any output check fails or a request fails.
"""
import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LOAD_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (a no-op when cached) and builds only what the
    benchmark runs."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError(f"no sources to build at {ROOT}")
    subprocess.run(["cmake", "-S", ROOT, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "build.cmake")],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench-load", "itree-served",
                    "itree-router"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench-load"), os.path.join(BUILD, "tools")


def filesystem_of(path):
    """Type of the filesystem holding `path`, from /proc/mounts."""
    best, kind = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


def cpu_model():
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def reap_all(group):
    """Kills what is left of the load generator's process group and waits
    for every child, including daemons re-parented to this process."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", choices=("reward", "id"),
                        help="corrupt one checked output; the run must fail")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    load_bin, bin_dir = build()
    work = os.path.join(ROOT, ".bench_build", "run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    trace_dir = os.path.join(ROOT, ".bench_build", "trace")
    os.makedirs(trace_dir, exist_ok=True)

    # Daemons orphaned by a crashed load generator re-parent here and are
    # reaped.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    command = [load_bin, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", bin_dir, "--work-dir", work,
               "--spans", os.path.join(trace_dir, f"{args.workload}-spans.csv")]
    if args.inject_fault:
        command += ["--inject-fault", args.inject_fault]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=LOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"load generator exceeded {LOAD_TIMEOUT_S} s")
        return 1
    finally:
        reap_all(proc.pid)
        shutil.rmtree(work, ignore_errors=True)

    lines = stdout.strip().splitlines()
    if not lines:
        log(f"load generator printed nothing (exit {proc.returncode})")
        return 1
    result = json.loads(lines[-1])
    report = result["report"]
    metrics = {}
    for metric in wanted:
        value = result["metrics"].get(metric["name"])
        if value is None and result["correct"]:
            log(f"load generator did not report {metric['name']}")
            return 1
        if value is not None:
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    bound = {m["name"]: m.get("bound") for m in spec["end_to_end"]}["ops_per_s"]
    first, last = report["ops_first_third"], report["ops_last_third"]
    drift = abs(last / first - 1.0) if first > 0 else float("inf")
    report["flags"] = {
        # The run-length trap: per-request cost that grows over the run.
        "non_stationary": drift > bound,
        "ops_last_over_first_third": last / first if first > 0 else None,
        # The load process took most of the shared core (a closed-loop
        # ping-pong splits it about evenly): the generator, not the
        # daemon, limited the run.
        "generator_bound": report["load_cpu_share"] > 0.6,
        "tree_grew_over_a_fifth": report["tree_growth_share"] > 0.2,
    }
    report["environment"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "data_dir_filesystem": filesystem_of(os.path.join(ROOT, ".bench_build")),
        "fsync_policy": report.pop("fsync"),
        "build_type": "Release",
    }
    for name, raised in report["flags"].items():
        if raised is True:
            log(f"flag raised: {name}")
    print(json.dumps({"perfbench_report": {"workload": args.workload,
                                           "seed": args.seed,
                                           "trace": args.trace, **report}}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError) as error:
        log(f"error: {error}")
        sys.exit(2)
