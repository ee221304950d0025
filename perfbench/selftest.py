#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--seconds S]

For every workload, a short untraced and a short traced run must emit
exactly the declared end-to-end / per-layer metrics with their
declared units, check every op (failed == 0, correct), keep the
deterministic counters identical across runs, drop no trace events,
and have the attr.<mechanism>_s slices sum to attr.total_self_s.
Then a run with a deliberately corrupted expected
fingerprint must finish normally and count every op as failed.
Exits 0 when all of that holds.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tables_all", "multiproc_d1")
MECHANISMS = ("compute", "relocation", "staging", "steal-idle", "join-park",
              "other")
# Counts that no performance change may move.
INVARIANTS = ("sim.vertices", "sim.virtual_time", "sweep.points",
              "ledger.compute.events", "ledger.local_access.events",
              "ledger.block_move.events", "ledger.comm.events",
              "ledger.rearrange.events")


def run(workload, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace), *extra]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), r.returncode))
    return json.loads(r.stdout.splitlines()[-1])


def check_metrics(result, declared, what):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(want), "%s: metric names differ: %s" % (
        what, sorted(set(got) ^ set(want)))
    for name, unit in want.items():
        assert got[name]["unit"] == unit, "%s: %s unit" % (what, name)
        assert math.isfinite(got[name]["value"]), "%s: %s" % (what, name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for w in WORKLOADS:
        e2e = run(w, args.seconds, 0)
        layer = run(w, args.seconds, 1)
        for res, declared, what in ((e2e, bench["end_to_end"], "trace 0"),
                                    (layer, bench["per_layer"], "trace 1")):
            check_metrics(res, declared, "%s %s" % (w, what))
            assert res["correct"] and res["failed"] == 0, "%s %s" % (w, what)
            assert res["attempted"] >= 1
        for name, m in e2e["metrics"].items():
            assert m["value"] > 0, "%s: %s is not positive" % (w, name)
        lm = {k: v["value"] for k, v in layer["metrics"].items()}
        assert lm["trace.dropped"] == 0 and lm["trace.trusted"] == 1, w
        total = sum(lm["attr.%s_s" % m] for m in MECHANISMS)
        assert abs(total - lm["attr.total_self_s"]) <= 1e-9 * max(1, total), w
        again = run(w, args.seconds, 1)
        for k in INVARIANTS:
            assert again["metrics"][k]["value"] == lm[k], "%s: %s moved" % (w, k)

        bad = run(w, args.seconds, 0, ["--corrupt-expected"])
        assert not bad["correct"], "%s: corrupted run reported correct" % w
        assert bad["failed"] == bad["attempted"] >= 1, "%s: %s" % (w, bad)
        print("selftest %s: ok (%d ops, corrupted run %d/%d failed)" % (
            w, e2e["attempted"], bad["failed"], bad["attempted"]))


if __name__ == "__main__":
    main()
