#!/usr/bin/env python3
"""Build pcbench from this checkout's sources, then run it.

    python3 pcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--out FILE] [--trace-out FILE]
    python3 pcbench/run.py --smoke [--bin PATH]

The first form configures and builds pcbench (with the powerchop
library and CLI it drives) under .bench_build/pcbench, then replaces
itself with the pcbench binary; every argument is passed through and
the last stdout line is pcbench's JSON result. Build output goes to
.bench_build/pcbench-build.log, and a failed build exits non-zero
without printing a result.

--smoke runs every workload at tiny sizes, untraced and traced, and
checks that every check passes, every metric BENCHMARK.json names is
printed and layers.json maps every per-layer metric to end-to-end
metrics and workloads that exist. It makes no timing assertions.
--bin skips the build and uses an existing pcbench binary.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "pcbench")
LOG = os.path.join(".bench_build", "pcbench-build.log")


def build():
    """Configure and build; return the pcbench binary path."""
    os.makedirs(".bench_build", exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "pcbench", "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "pcbench", "-j", jobs],
    ]
    with open(LOG, "w") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=log).returncode
            except OSError as e:
                rc = f"{e}"
            if rc != 0:
                log.flush()
                with open(LOG) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.exit(f"pcbench: build step failed ({rc}): "
                         f"{' '.join(step)}")
    return os.path.join(BUILD, "pcbench")


def smoke(binary):
    """Run all workloads tiny, untraced and traced; validate."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {
        "0": [m["name"] for m in bench["end_to_end"]],
        "1": [m["name"] for m in bench["per_layer"]],
    }
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    with open(os.path.join("pcbench", "layers.json")) as f:
        layers = {k: v for k, v in json.load(f).items()
                  if not k.startswith("_")}
    if set(layers) != set(wanted["1"]):
        problems.append("layers.json does not map exactly the per_layer "
                        "metrics of BENCHMARK.json")
    for name, layer in layers.items():
        unknown = [m for m in layer["moves"] if m not in wanted["0"]]
        unknown += [w for w in layer["workload"] + layer["light_use"]
                    if w not in names]
        if unknown:
            problems.append(f"layers.json {name}: unknown "
                            f"{', '.join(unknown)}")
    for trace, metrics in wanted.items():
        out = os.path.join(".bench_build", f"pcbench-smoke-{trace}.json")
        proc = subprocess.run(
            [binary, "--workload", "all", "--seed", "1", "--smoke",
             "--trace", trace, "--out", out],
            stdout=subprocess.PIPE, text=True, timeout=110)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            problems.append(f"--trace {trace}: exit {proc.returncode}")
            continue
        printed = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        with open(out) as f:
            runs = {r["workload"]: r for r in json.load(f)["runs"]}
        for name in names:
            run = runs.get(name)
            if run is None:
                problems.append(f"{name}: no result")
                continue
            for c in run["checks"]:
                if not c["ok"]:
                    problems.append(f"{name}: check {c['name']} failed")
            if not run["correct"]:
                problems.append(f"{name} --trace {trace}: not correct")
            for m in metrics:
                if f"{name}.{m}" not in printed:
                    problems.append(f"{name} --trace {trace}: no {m}")
    for p in problems:
        print(f"pcbench smoke: {p}", file=sys.stderr)
    print("pcbench smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    os.chdir(ROOT)
    args = sys.argv[1:]
    binary = None
    if "--bin" in args:
        i = args.index("--bin")
        binary = os.path.abspath(args[i + 1])
        del args[i:i + 2]
    if binary is None:
        binary = build()
    if args == ["--smoke"]:
        sys.exit(smoke(binary))
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
