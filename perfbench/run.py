#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The C++ driver is built from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) with the checkout's own library
sources. Build output goes to stderr, so the last line of standard
output is the driver's result object. Exits nonzero without a result
when the build fails (for example outside a checkout), when the driver
fails, or when an answer does not match the library's cold path.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(build_dir, target, extra_defs=()):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release", *extra_defs]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(build_dir, target)


def source_revision():
    """The git revision when there is one, else a digest of src/."""
    try:
        # Only a repository rooted here counts; an enclosing one would
        # name somebody else's revision.
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if (rev.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def run_driver(binary, args, work_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-rev", source_revision()]
    # A session of its own, so a timeout can stop the driver and any
    # worker process it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"driver exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    try:
        if args.self_test:
            test = build(os.path.join(build_root(), "perfbench-test"),
                         "perfbench_test", ["-DPERFBENCH_BUILD_TESTS=ON"])
            return subprocess.run([test]).returncode
        if not args.workload:
            parser.error("--workload is required")
        binary = build(os.path.join(build_root(), "perfbench"), "perfbench")
        work_dir = os.path.join(build_root(), f"perfbench-work-{os.getpid()}")
        try:
            code, out = run_driver(binary, args, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except RuntimeError as err:
        log(str(err))
        return 1

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (json.JSONDecodeError, IndexError):
        well_formed = False
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        log(f"driver exited with status {code}")
        return code
    if not well_formed:
        log("driver printed no well-formed result line")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
