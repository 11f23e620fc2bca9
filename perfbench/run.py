#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

Builds the deepsz library, deepsz_tool and the perfbench harness from source
into .bench_build/ (incremental after the first run), prepares the zoo's
pruned LeNet-300 once, runs the workload and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 1 the metrics are the per-layer ones, and both
Chrome traces the run writes must pass tools/check_trace.py.

Everything the run writes stays under .bench_build/. Exits nonzero, with no
result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve-warm", "serve-churn", "compress")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail(f"{' '.join(cmd[:3])} ... failed (exit {proc.returncode}); "
             f"log: {log_path}")


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} next to perfbench/: not a source checkout")
    # Compilers and the library put temporary files under TMPDIR; keep them
    # inside the build tree like everything else the run writes.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD, "configure.log"), 600)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                "deepsz_tool", "-j", jobs],
               os.path.join(BUILD, "build.log"), 900)


def source_id():
    """The commit when the root is a git work tree, else a hash of the
    source tree. git runs only when ROOT itself holds .git, so a checkout
    nested in some other repository never reports that repository's HEAD."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=False)
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def run_harness(args, work):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--tool", os.path.join(BUILD, "deepsz", "deepsz_tool"),
           "--work", work]
    # Own process group, so a timeout or a signal to this script also stops
    # the daemons the harness spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop_group(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"stopped by signal {signum}")

    signal.signal(signal.SIGTERM, stop_group)
    signal.signal(signal.SIGINT, stop_group)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"harness exited {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def check_traces(work):
    """Both traces of a traced run must pass tools/check_trace.py."""
    checker = os.path.join(ROOT, "tools", "check_trace.py")
    checks = [
        (os.path.join(work, "bench_trace.json"),
         ["--require", "request,store.get,forward,encode_model,sz.compress,"
                       "lossless.compress,session.assess,http.infer"]),
        (os.path.join(work, "daemon_trace.json"),
         ["--require", "http_dispatch,http_parse,queue,forward,serialize"]),
    ]
    ok = True
    for path, extra in checks:
        res = subprocess.run([sys.executable, checker, path] + extra,
                             capture_output=True, text=True, timeout=120,
                             check=False)
        print((res.stdout + res.stderr).strip())
        ok = ok and res.returncode == 0
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.time()
    build()
    # The zoo's trained weights are cached inside the build tree.
    os.environ["DEEPSZ_CACHE"] = os.path.join(BUILD, "zoo")
    work = os.path.join(BUILD, "work", f"{args.workload}-{args.trace}")
    marker = os.path.join(BUILD, "zoo", "perfbench_lenet300_pruned.weights")
    if not os.path.exists(marker):
        run_logged([os.path.join(BUILD, "perfbench"), "--prepare", "--work",
                    work], os.path.join(BUILD, "prepare.log"), 900)

    log, result = run_harness(args, work)
    for line in log:
        print(line)
    if args.trace and not check_traces(work):
        result["correct"] = False
        result["attempted"] += 1
        result["failed"] += 1

    record = {"source": source_id(), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "wall_s": round(time.time() - started, 3), "result": result}
    for line in log:
        if line.startswith("provenance "):
            record["provenance"] = json.loads(line[len("provenance "):])
    with open(os.path.join(BUILD, "results.jsonl"), "a") as ledger:
        ledger.write(json.dumps(record) + "\n")
    print("source " + record["source"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
