#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs from the repository root in about a minute. At a tiny scale
(--scale-div 100, one-second runs) it:

  1. pins every observable at seed 1 into a scratch pins file;
  2. runs every workload untraced and traced against those pins and
     asserts that every metric BENCHMARK.json names is printed with its
     unit, that nothing failed and that ok_ratio is 1;
  3. runs a held-out seed (self-consistency checks only) with no
     failures;
  4. corrupts one pinned fingerprint and asserts that the oracle now
     counts a failure -- proof that the oracle is live.

Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(ROOT, ".bench_build", "perfbench-work",
                    "selftest-pins.json")
TINY = ["--scale-div", "100", "--seconds", "1", "--pins", PINS]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(*args):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                       list(args) + TINY, cwd=ROOT, stdout=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(os.path.dirname(PINS), exist_ok=True)
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--write-pins"] + TINY, cwd=ROOT)
    check(r.returncode == 0, "pins written at tiny scale")

    for w in (x["name"] for x in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            what = "%s --trace %d" % (w, trace)
            res = run("--workload", w, "--seed", "1", "--trace", str(trace))
            check(res is not None, what + ": prints a result")
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  what + ": result keys")
            check(all(res["metrics"].get(m["name"], {}).get("unit") ==
                      m["unit"] for m in listed) and
                  len(res["metrics"]) == len(listed),
                  what + ": every listed metric, with its unit")
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] > 0, what + ": no failed operation")
            if trace == 0:
                check(res["metrics"]["ok_ratio"]["value"] == 1,
                      what + ": ok_ratio is 1")

    res = run("--workload", "live", "--seed", "5", "--trace", "0")
    check(res is not None and res["failed"] == 0,
          "held-out seed 5: no failed operation")

    with open(PINS) as f:
        pins = json.load(f)
    key = next(k for k in sorted(pins) if k.startswith("live.") and
               k.endswith(".shadow"))
    pins[key] = "%016x" % (int(pins[key], 16) ^ 1)
    with open(PINS, "w") as f:
        json.dump(pins, f)
    res = run("--workload", "live", "--seed", "1", "--trace", "0")
    check(res is not None and res["failed"] > 0 and not res["correct"] and
          res["metrics"]["ok_ratio"]["value"] < 1,
          "wrong pinned %s: the oracle counts a failure" % key)

    os.remove(PINS)
    print("selftest: %s" % ("PASS" if not failures else
                            "%d FAILED" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
