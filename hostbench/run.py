#!/usr/bin/env python3
"""Host-time benchmark entry point.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --self-test

Builds the library and the hostbench driver from source (CMake, Release)
into $CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench), runs one
workload in its own process with OpenMP pinned to one thread, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and the metrics BENCHMARK.json names for the mode: every
end_to_end metric with --trace 0, every per_layer metric with --trace 1.
Exits 1 when a tree fails validation, a search throws, a count drifts
within the run, or a named metric is missing. See hostbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# One OpenMP thread: on a shared 4-core host, 3 threads made the 1024-rank
# observed searches 40 % slower than 1 and every host time several times
# noisier across runs (see README.md).
OMP_THREADS = 1
WORKLOADS = ("rmat18-2d-prep", "rmat16-1d-search", "rmat16-2d-observed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "hostbench")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    bdir = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "hostbench"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise SystemExit(f"hostbench: build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "hostbench")


def provenance():
    """Git commit when the checkout has one, plus a digest of the sources
    the binary is built from (identifies the code either way)."""
    commit = "none (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = os.path.join(ROOT, ".git", name)
            packed = os.path.join(ROOT, ".git", "packed-refs")
            if os.path.isfile(loose):
                with open(loose) as f:
                    commit = f.read().strip()
            elif os.path.isfile(packed):
                with open(packed) as f:
                    for line in f:
                        parts = line.split()
                        if len(parts) == 2 and parts[1] == name:
                            commit = parts[0]
    digest = hashlib.sha256()
    for top in ("src", "hostbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_binary(binary, args, echo=True):
    """Runs the driver; returns (exit code, parsed last-line JSON or None)."""
    env = dict(os.environ, OMP_NUM_THREADS=str(OMP_THREADS))
    try:
        res = subprocess.run([binary] + args, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"hostbench: run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, None
    lines = res.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return res.returncode, result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select(result, trace):
    """Keeps exactly the metrics BENCHMARK.json names for this mode and
    checks each was printed with a unit."""
    wanted = spec()["per_layer" if trace else "end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics, missing


def bench(args):
    binary = build()
    commit, digest = provenance()
    print(f"provenance: commit={commit} source_digest={digest} "
          f"threads={OMP_THREADS} nproc={len(os.sched_getaffinity(0))} "
          f"seed={args.seed}")
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans",
                             f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans-out", spans]
    code, result = run_binary(binary, cmd)
    if result is None:
        log(f"hostbench: driver exited {code} without a result")
        return 1
    metrics, missing = select(result, args.trace)
    for name in missing:
        log(f"hostbench: metric {name} missing or printed without its unit")
    correct = bool(result["correct"]) and code == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def self_test():
    """Tiny-scale checks of the benchmark itself (see README.md)."""
    binary = build()
    problems = []
    spans_dir = os.path.join(build_dir(), "self-test")
    os.makedirs(spans_dir, exist_ok=True)

    def short(workload, seed, trace, extra=()):
        cmd = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--short"] + list(extra)
        return run_binary(binary, cmd, echo=False)

    counts = ("graph.edges_built", "bfs.edges_scanned", "model_gteps",
              "model_net_bytes")
    for workload in WORKLOADS:
        a = None
        for trace in (0, 1):
            code, result = short(workload, 1, trace)
            if code != 0 or result is None:
                problems.append(f"{workload} trace={trace}: exit {code}")
                continue
            _, missing = select(result, trace)
            problems += [f"{workload} trace={trace}: {name} not printed "
                         "with its unit" for name in missing]
            if trace:
                a = result

        b = short(workload, 1, 1)[1]
        c = short(workload, 2, 1)[1]
        if a and b and c:
            value = lambda r, k: r["metrics"][k]["value"]
            for key in counts:
                if value(a, key) != value(b, key):
                    problems.append(f"{workload}: {key} differs at one seed")
            if all(value(a, k) == value(c, k) for k in counts):
                problems.append(f"{workload}: seeds 1 and 2 give equal counts")
        else:
            problems.append(f"{workload}: repeat runs gave no result")

        code, result = short(workload, 1, 0, ["--corrupt-parents"])
        frac = result["metrics"]["fail_frac"]["value"] if result else 0
        if code == 0 or frac <= 0:
            problems.append(f"{workload}: corrupted parents not caught "
                            f"(exit {code}, fail_frac {frac})")

        spans = os.path.join(spans_dir, f"{workload}.json")
        short(workload, 3, 1, ["--spans-out", spans])
        problems += check_spans(workload, spans)

    for p in problems:
        log(f"self-test FAILED: {p}")
    print("self-test " + ("FAILED" if problems else "OK") +
          f" ({len(WORKLOADS)} workloads)")
    return 1 if problems else 0


def check_spans(workload, path):
    """Recomputes self times from the span file: never negative, equal to
    the driver's own, and every span of a search shares its trace id."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return [f"{workload}: unreadable span file ({e})"]
    args = [e["args"] for e in events]
    self_ns = [a["end_ns"] - a["start_ns"] for a in args]
    for a in args:
        if a["parent"] >= 0:
            self_ns[a["parent"]] -= a["end_ns"] - a["start_ns"]
    problems = []
    if not events:
        problems.append(f"{workload}: no spans recorded")
    if any(s < 0 for s in self_ns):
        problems.append(f"{workload}: negative span self time")
    if any(s != a["self_ns"] for s, a in zip(self_ns, args)):
        problems.append(f"{workload}: span self times disagree")
    for e in events:
        parent = e["args"]["parent"]
        if (parent >= 0 and events[parent]["name"] == "search"
                and events[parent]["args"]["trace"] != e["args"]["trace"]):
            problems.append(f"{workload}: search span ids differ")
            break
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
