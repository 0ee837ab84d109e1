#!/usr/bin/env python3
"""Compare saved perfbench reports of one workload, like for like.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Reports are the files a run leaves in .bench_work/reports/. Each side's
value of a metric is the median over its reports; a metric counts as
worse when the new median exceeds the base median by more than the
bound BENCHMARK.json gives it (end-to-end metrics only). Reports taken
on different environments (CPU model, nproc, OCaml version, word size,
OS) are refused as not comparable, with exit code 3, rather than
reported as regressions. Exit 1 when a metric is worse, 0 otherwise.
"""

import argparse
import json
import statistics
import sys

ENV_KEYS = ["cpu", "ocaml_version", "word_size", "os"]


def env_of(report):
    return tuple([report["env"][k] for k in ENV_KEYS] + [report["nproc"]])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base = [json.load(open(p)) for p in args.base]
    new = [json.load(open(p)) for p in args.new]
    envs = {env_of(r) for r in base + new}
    if len(envs) > 1:
        print("not comparable: reports come from %d environments:" % len(envs))
        for e in sorted(envs):
            print("  " + ", ".join("%s=%s" % kv for kv in zip(ENV_KEYS + ["nproc"], e)))
        return 3
    if len({(r["workload"], r["trace"]) for r in base + new}) > 1:
        print("not comparable: reports of different workloads or trace modes")
        return 3
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
    worse = 0
    for name in base[0]["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        unit = base[0]["metrics"][name]["unit"]
        line = "%-26s %14.6g -> %14.6g %-6s" % (name, b, n, unit)
        if name in bounds and b != 0:
            bound, better = bounds[name]
            change = (n - b) / b if better == "lower" else (b - n) / b
            bad = change > bound
            worse += bad
            line += "  %+.1f%% (bound %.0f%%)%s" % (100 * (n - b) / b, 100 * bound,
                                                    "  WORSE" if bad else "")
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
