#!/usr/bin/env python3
"""The repository benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload paper-threads --seed 7 --seconds 15 --trace 0

Run from the root of a source checkout. Builds the cellgan libraries, the
serving daemon and the `perfbench` harness (perfbench/CMakeLists.txt) under
.bench_build/, writes the seed's IDX quartet under perfbench/.inputs/ (cached
by seed and size, generated before any timing), runs the harness and prints
its metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end list,
with --trace 1 its per_layer list; the traced run also writes a Chrome trace
(Perfetto) under perfbench/.out/. The last stdout line is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

See perfbench/README.md for the workloads, the metrics and their meaning.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
INPUTS_DIR = os.path.join(HERE, ".inputs")
OUT_DIR = os.path.join(HERE, ".out")
TRAIN_SAMPLES = 60000
KEEP_INPUTS = 4  # seeds whose IDX quartet stays cached
HARNESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail("command failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    """Configure once, then (re)build the harness and the server."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                "perfbench", "perfbench_server"], log, BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench"), os.path.join(BUILD_DIR, "perfbench_server")


def source_sha():
    """The commit when the checkout is a git work tree, else a hash of the
    sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--",
                                    "src", "examples", "perfbench", "CMakeLists.txt"],
                                   capture_output=True, text=True, timeout=10).stdout.strip()
            return "git-" + sha.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def inputs_for(harness, seed):
    """The seed's IDX quartet, generated once and kept for the last few seeds."""
    os.makedirs(INPUTS_DIR, exist_ok=True)
    directory = os.path.join(INPUTS_DIR, "idx-s%d-n%d" % (seed, TRAIN_SAMPLES))
    marker = os.path.join(directory, "complete")
    if not os.path.exists(marker):
        shutil.rmtree(directory, ignore_errors=True)
        run_logged([harness, "prepare", "--seed", str(seed), "--dir", directory],
                   os.path.join(INPUTS_DIR, "prepare.log"), HARNESS_TIMEOUT_S)
        open(marker, "w").close()
    os.utime(marker)
    cached = sorted((os.path.getmtime(os.path.join(INPUTS_DIR, d, "complete")), d)
                    for d in os.listdir(INPUTS_DIR)
                    if os.path.exists(os.path.join(INPUTS_DIR, d, "complete")))
    for _, stale in cached[:-KEEP_INPUTS]:
        shutil.rmtree(os.path.join(INPUTS_DIR, stale), ignore_errors=True)
    return directory


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.exists(spec_path):
        fail("%s is not a cellgan source checkout (no CMakeLists.txt, src/ or "
             "BENCHMARK.json); nothing to build or measure" % ROOT, 2)
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads)), 2)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    # Measure the program's defaults: drop every CELLGAN_* selection knob.
    for key in [k for k in os.environ if k.startswith("CELLGAN_")]:
        del os.environ[key]

    harness, server = build()
    source = source_sha()
    idx_dir = inputs_for(harness, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.time()
    # The harness and every process it starts (TCP ranks, the server) share
    # one process group, so a hung run is stopped whole.
    proc = subprocess.Popen(
        [harness, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--idx", idx_dir,
         "--out", OUT_DIR, "--server", server, "--source", source],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("harness printed no result")
    full = json.loads(lines[-1])

    provenance = full["info"]["provenance"]
    if provenance["build_type"] not in ("Release", "RelWithDebInfo"):
        fail("refusing numbers from a %s build" % provenance["build_type"], 2)
    missing = [name for name in wanted if name not in full["metrics"]]
    if missing:
        fail("harness did not report: " + ", ".join(missing))
    full["info"]["source"] = source
    full["info"]["seconds_elapsed"] = round(time.time() - started, 3)
    record = os.path.join(OUT_DIR, "result-%s-s%d-t%d.json" % (args.workload, args.seed,
                                                               args.trace))
    with open(record, "w") as f:
        json.dump(full, f, indent=1)
    print("provenance: " + json.dumps(dict(provenance, source=full["info"]["source"],
                                            seed=args.seed, workload=args.workload)))
    if full.get("failures"):
        print("failures: " + json.dumps(full["failures"]))
    result = {
        "correct": bool(full["correct"]),
        "attempted": int(full["attempted"]),
        "failed": int(full["failed"]),
        "metrics": {name: full["metrics"][name] for name in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
