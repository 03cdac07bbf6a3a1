#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload live|remonitor|lg2|daemon \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the perfbench driver (and the
paralog_core library it links) from source into .bench_build/, prepares
the output oracle's expectations, runs the driver and prints its result
as the last line of standard output: one JSON object with `correct`,
`attempted`, `failed` and `metrics` -- every end-to-end metric listed in
BENCHMARK.json when --trace 0, every per-layer metric when --trace 1.

Expectations are pinned for seed 1 only (PINNED_SEED): the Fig. 6 SC
rows come from BENCH_fig6_*.json, everything else from
perfbench/pins.json. On any other seed only the self-consistency checks
apply (repeated passes agree, lg2 matches serial, replays match their
recordings and footers, daemon verdicts match offline replays).

Extra flags: --scale-div K (divide every scale; self-test), --pins FILE
(use FILE instead of perfbench/pins.json), --write-pins (regenerate the
pins file at seed 1 from the current build).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The driver's scratch directory (kWorkDir in src/bench.hpp), relative
# to ROOT, where the driver runs; the expectations file goes there too.
WORK = os.path.join(".bench_build", "perfbench-work")
PINNED_SEED = 1
WORKLOADS = ["live", "remonitor", "lg2", "daemon"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build only the driver target."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "platform.hpp")):
        log("repository sources (src/) not found next to perfbench/")
        return None
    cmds = []
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        cmds.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD, "perfbench")


def fig6_rows():
    """The `parallel,4` rows of the pinned Fig. 6 grids (seed 1)."""
    rows = {}
    for lg in ("addrcheck", "taintcheck"):
        with open(os.path.join(ROOT, "BENCH_fig6_%s.json" % lg)) as f:
            bench = json.load(f)
        for inv in bench["invocations"]:
            if "--seed=1" not in inv["args"].split():
                continue
            for row in inv["csv"][1:]:
                cols = row.split(",")
                if cols[1:4] == [lg, "parallel", "4"] and cols[6] == "sc":
                    rows["live.%s.sc.%s.row" % (lg, cols[0])] = row
    return rows


def expectations(args):
    """`key value` lines the driver checks, or None when unpinned."""
    if args.seed != PINNED_SEED:
        return None
    with open(args.pins) as f:
        pins = json.load(f)
    if args.scale_div == 1:
        pins.update(fig6_rows())
    path = os.path.join(WORK, "expect-%s.txt" % args.workload)
    with open(os.path.join(ROOT, path), "w") as f:
        for key, value in sorted(pins.items()):
            f.write("%s %s\n" % (key, value))
    return path


def run_driver(exe, args, extra):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale-div", str(args.scale_div)] + extra
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        return None
    if r.returncode != 0:
        log("driver exited with %d" % r.returncode)
        return None
    return r.stdout


def write_pins(exe, args):
    """Regenerate the pins file: every observable at the pinned seed,
    minus the rows BENCH_fig6_*.json already pins."""
    bench_rows = fig6_rows() if args.scale_div == 1 else {}
    pins = {}
    for w in WORKLOADS:
        args.workload = w
        out = run_driver(exe, args, ["--pin"])
        if out is None:
            return 1
        for line in out.splitlines():
            if line.startswith("pin "):
                _, key, value = line.split(" ", 2)
                if key not in bench_rows:
                    pins[key] = value
    with open(args.pins, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %d pins to %s" % (len(pins), args.pins))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale-div", type=int, default=1)
    ap.add_argument("--pins", default=os.path.join(HERE, "pins.json"))
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = build()
    if exe is None:
        return 1
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    if args.write_pins:
        args.seed = PINNED_SEED
        return write_pins(exe, args)
    if args.workload is None:
        ap.error("--workload is required")

    expect = expectations(args)
    out = run_driver(exe, args, ["--expect", expect] if expect else [])
    if out is None:
        return 1
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # Report exactly the metrics BENCHMARK.json names for this mode. A
    # per-layer metric the workload does not exercise reads 0; a missing
    # end-to-end metric is a driver bug.
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in listed:
        if m["name"] in got:
            metrics[m["name"]] = {"value": got[m["name"]]["value"],
                                  "unit": m["unit"]}
        elif args.trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            log("driver did not report %s" % m["name"])
            return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
