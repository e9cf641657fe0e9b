#!/usr/bin/env python3
"""Builds and runs the Mermaid benchmark from the root of a source tree.

    python3 perfbench/run.py --workload mm1-hetero --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --digest [--workload NAME] [--seed N]
    python3 perfbench/run.py --selftest

The first form prints the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1) of one workload and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --digest compares every
modeled quantity under the default engine and under EngineOptions::AllOn().
--selftest runs the checker tests. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the tree's root; see perfbench/README.md.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out, target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Mermaid sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", target, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, target)


def declared_metrics():
    """(end_to_end, per_layer) name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(binary, args, out):
    """Runs one workload; returns the exit code. A run that aborts or hangs
    counts its operations as failed."""
    cmd = [binary] + args + ["--spans-dir", os.path.join(out, "spans")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        stdout, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as e:  # the child is killed and reaped
        stdout = e.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
        code = None
    if code == 2:  # a usage error: no run was made
        return 2
    lines = stdout.rstrip("\n").split("\n") if stdout else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or code not in (0, 1):
        for line in lines:
            print(line)
        why = "timed out" if code is None else f"exited with {code}"
        print(f"perfbench: the benchmark {why} before its result",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    # The printed metrics must be exactly the ones BENCHMARK.json declares.
    end_to_end, per_layer = declared_metrics()
    want = per_layer if "--trace" in args and \
        args[args.index("--trace") + 1] == "1" else end_to_end
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    for line in lines:
        print(line)
    if got != want:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(got.items()) ^ set(want.items()))}",
              file=sys.stderr)
        return 1
    return code


def main(argv):
    out = build_dir()
    if "--selftest" in argv:
        if len(argv) != 1:
            fail("--selftest takes no other arguments")
        return subprocess.run([build(out, "perfbench_selftest")]).returncode
    binary = build(out, "mermaid_perfbench")
    if "--digest" in argv:
        return subprocess.run([binary] + argv).returncode
    return run_workload(binary, argv, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
