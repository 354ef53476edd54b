#!/usr/bin/env python3
"""Compare pcbench results of two commits.

    python3 pcbench/compare.py --base a1.json ... a5.json \\
                               --head b1.json ... b5.json

Each file is one `pcbench --out FILE` result (one workload or `all`).
Give at least five per side; run i of --base pairs with run i of
--head, so alternate which side runs first. Files measured on different
hosts (any fingerprint field but git_sha differs) are refused.

For every (workload, metric) it prints both medians with quartiles, the
change of the head median against the base median, the share of pairs
the head wins (ties count for neither side) and a verdict:

  improved    head wins at least 9 of 10 pairs and the medians differ
              by more than the base's quartile spread
  regressed   head median worse than base by more than the metric's
              BENCHMARK.json bound
  unresolved  base spread wider than the bound, unless every head run
              beats every base run
  no worse    otherwise

Per-layer metrics have no bound; they get only "improved" or "-",
followed by what layers.json says the metric should move on that
workload ("moves throughput"), or "light use" where the workload uses
the layer little.
Exit status: 0, or 1 when anything regressed or the input is refused.
"""

import argparse
import json
import os
import statistics
import sys

HOST_FIELDS = ("nproc", "cpu", "compiler", "build_type", "journal_fs")


def load(paths):
    runs, prints = [], []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        prints.append(doc["fingerprint"])
        runs.append({r["workload"]: r for r in doc["runs"]})
    return runs, prints


def quartiles(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q[0], statistics.median(values), q[2]


def verdict(base, head, better, bound):
    b1, bmed, b3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    win_frac = wins / min(len(base), len(head))
    if win_frac >= 0.9 and sign * (hmed - bmed) > b3 - b1:
        return "improved", win_frac
    if bound is None:
        return "-", win_frac
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if bmed and (b3 - b1) / abs(bmed) > bound and not all_better:
        return "unresolved", win_frac
    worse = -sign * (hmed - bmed) / abs(bmed) if bmed else 0.0
    return ("regressed" if worse > bound else "no worse"), win_frac


def layer_role(layer, workload):
    """What a per-layer metric should move on `workload`."""
    if workload in layer["workload"] and layer["moves"]:
        return "moves " + ", ".join(layer["moves"])
    if workload in layer["light_use"]:
        return "light use"
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = ap.parse_args()

    if len(args.base) < 5 or len(args.head) < 5:
        sys.exit("compare: give at least 5 run files per side")
    base, base_fp = load(args.base)
    head, head_fp = load(args.head)
    ref = base_fp[0]
    for fp in base_fp + head_fp:
        for field in HOST_FIELDS:
            if fp.get(field) != ref.get(field):
                sys.exit(f"compare: refusing: host {field} differs "
                         f"({ref.get(field)!r} vs {fp.get(field)!r})")
    for side, fps in (("base", base_fp), ("head", head_fp)):
        if len({fp.get("git_sha") for fp in fps}) > 1:
            sys.exit(f"compare: refusing: --{side} mixes commits")

    with open(args.benchmark) as f:
        bench = json.load(f)
    spec = {m["name"]: (m["better"], m.get("bound"))
            for m in bench["end_to_end"] + bench["per_layer"]}
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "layers.json")) as f:
        layers = json.load(f)

    print(f"base {base_fp[0].get('git_sha')} x{len(base)}  "
          f"head {head_fp[0].get('git_sha')} x{len(head)}  "
          f"host {ref.get('cpu')} ({ref.get('nproc')} cpus)")
    print(f"{'workload':15s} {'metric':30s} {'base median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s} {'change':>8s} {'wins':>5s}  "
          "verdict")
    failed = False
    for workload in base[0]:
        if any(workload not in r for r in base + head):
            continue
        for metric in base[0][workload]["metrics"]:
            if metric not in spec:
                continue
            better, bound = spec[metric]
            bv = [r[workload]["metrics"][metric]["value"] for r in base]
            hv = [r[workload]["metrics"][metric]["value"] for r in head]
            v, win_frac = verdict(bv, hv, better, bound)
            b1, bmed, b3 = quartiles(bv)
            h1, hmed, h3 = quartiles(hv)
            change = (hmed - bmed) / abs(bmed) if bmed else 0.0
            failed = failed or v == "regressed"
            if metric in layers:
                v = f"{v:10s} {layer_role(layers[metric], workload)}"
            print(f"{workload:15s} {metric:30s} "
                  f"{bmed:12.5g} [{b1:9.5g}, {b3:9.5g}] "
                  f"{hmed:12.5g} [{h1:9.5g}, {h3:9.5g}] "
                  f"{change:+8.2%} {win_frac:5.0%}  {v}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
