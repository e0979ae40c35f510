#!/usr/bin/env python3
"""The repo benchmark's one command.

Builds perfbench/ (an optimised, telemetry-on build of the repo's sources)
into $CARGO_TARGET_DIR (default .bench_build) under the repository root, then
runs one workload and prints its metrics.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it is the run's provenance.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --check [--seconds S]

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
--check runs every workload on two seeds, end to end and traced, with the
sharded-vs-unsharded digest comparison, and exits nonzero if any check fails.
"""
import argparse
import datetime
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lossy_20x50", "churn_20x50", "ticker_1e5", "ticker_1e5_2proc"]
CHECK_SEEDS = [1, 2]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure and build; returns the benchmark binary path or None."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                log(r.stdout[-4000:])
                log("perfbench: build failed")
                return None
    return os.path.join(out, "lbrm_perfbench")


def source_fingerprint():
    """sha256 over src/ and perfbench/ sources (stands in when git is absent)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else None
    except (OSError, subprocess.SubprocessError):
        return None


def describe(binary):
    r = subprocess.run([binary, "--describe"], stdout=subprocess.PIPE, text=True)
    return json.loads(r.stdout.strip().splitlines()[-1]) if r.returncode == 0 else None


def run_one(binary, build_info, workload, seed, seconds, trace, check=False):
    """Run the binary once; returns (exit code, result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--check"] if check else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    config = None
    for line in lines[:-1]:
        if line.startswith("config "):
            config = json.loads(line[len("config "):])
        else:
            print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    provenance = {
        "commit": commit(),
        "source_sha256": source_fingerprint(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "telemetry": build_info["telemetry"],
        "seed": seed,
        "workload": workload,
        "config": config,
        "trace": trace,
        "nproc": os.cpu_count(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=CHECK_SEEDS[0])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    if not args.check and not args.workload:
        ap.error("--workload is required unless --check is given")

    binary = build()
    if binary is None:
        return 1
    info = describe(binary)
    if info is None:
        log("perfbench: cannot describe the benchmark build")
        return 1
    if not info["optimized"] or not info["telemetry"]:
        # Episodes and counters read zero without telemetry, and an
        # unoptimised build measures the compiler, not the program.
        log("perfbench: refusing to report numbers from build %s" % json.dumps(info))
        return 2

    if not args.check:
        code, result = run_one(binary, info, args.workload, args.seed, args.seconds, args.trace)
        if code != 0 or result is None:
            log("perfbench: %s failed (exit %d)" % (args.workload, code))
        if result is not None:
            # A failed check still reports its numbers, with correct=false.
            print(json.dumps(result))
        return code or (0 if result is not None else 1)

    failures = []
    for workload in WORKLOADS:
        for seed in CHECK_SEEDS:
            for trace in (0, 1):
                code, result = run_one(binary, info, workload, seed, min(args.seconds, 1.0),
                                       trace, check=(trace == 0))
                ok = code == 0 and result is not None and result["correct"]
                log("check %-17s seed %d trace %d: %s" % (workload, seed, trace,
                                                         "ok" if ok else "FAILED"))
                if not ok:
                    failures.append((workload, seed, trace))
    log("check: %s" % ("all passed" if not failures else "%d failed" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
