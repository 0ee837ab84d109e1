#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a source checkout:

    python3 perfbench/selftest.py [workload ...]

Checks, per workload (those of BENCHMARK.json by default; name
word_games to test it too):
  - the input generators are deterministic per seed, and the seeded
    workloads change with the seed;
  - an untraced run reports exactly the end-to-end metrics of
    BENCHMARK.json, with their units, and passes its known answers;
  - a corrupted pinned answer makes failed > 0 and the exit code non-zero;
  - a traced run reports exactly the per-layer metrics, and the layer
    self times plus unattributed_s add up to the traced wall trace.wall_s.
Takes a few minutes (each run does its workload's minimum repetitions).
"""

import json
import subprocess
import sys

# The spans' self-time metrics (perfbench/layers.ml, [self_times]).
SELF_TIMES = ["unary.k1_s", "search.k2_s", "search.k3_s", "structure.build_s",
              "cache.probe_s", "scan.replay_s", "persist.save_s", "persist.load_s",
              "fleet.run_s", "spanner.eval_s", "check_s"]
SEEDED = {"word_games", "spanner_corpus"}

BENCH = json.load(open("BENCHMARK.json"))


def run(*args):
    p = subprocess.run([sys.executable, "perfbench/run.py", *args],
                       stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, lines, result


def units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def reported(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_generators(w):
    digest = lambda seed: run("--workload", w, "--seed", str(seed), "--dump-inputs")[1][-1]
    check(digest(7) == digest(7), "same seed, different inputs")
    if w in SEEDED:
        check(digest(7) != digest(8), "the seed does not change the inputs")


def test_untraced(w):
    rc, _, r = run("--workload", w, "--seed", "5", "--seconds", "1", "--trace", "0")
    check(rc == 0 and r and r["correct"] and r["failed"] == 0, "untraced run failed")
    check(reported(r) == units("end_to_end"), "end-to-end metric set differs")


def test_corrupt(w):
    rc, _, r = run("--workload", w, "--seed", "5", "--seconds", "1", "--trace", "0",
                   "--corrupt-pinned")
    check(rc != 0, "corrupted pin still exits 0")
    check(r and not r["correct"] and r["failed"] > 0, "corrupted pin not counted as failed")


def test_layer_sum(w):
    rc, _, r = run("--workload", w, "--seed", "5", "--seconds", "1", "--trace", "1")
    check(rc == 0 and r and r["correct"], "traced run failed")
    check(reported(r) == units("per_layer"), "per-layer metric set differs")
    v = {k: x["value"] for k, x in r["metrics"].items()}
    total = sum(v[n] for n in SELF_TIMES) + v["unattributed_s"]
    check(abs(total - v["trace.wall_s"]) <= 1e-9 * max(1.0, v["trace.wall_s"]),
          "self times + unattributed_s = %r, trace.wall_s = %r" % (total, v["trace.wall_s"]))
    check(v["unattributed_s"] >= 0, "negative unattributed time")


def main(argv):
    workloads = argv or [w["name"] for w in BENCH["workloads"]]
    failures = 0
    for w in workloads:
        for test in (test_generators, test_untraced, test_corrupt, test_layer_sum):
            try:
                test(w)
                print("ok   %s %s" % (test.__name__, w), flush=True)
            except AssertionError as e:
                failures += 1
                print("FAIL %s %s: %s" % (test.__name__, w, e), flush=True)
    print("%d failure(s)" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
