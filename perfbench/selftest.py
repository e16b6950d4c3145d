#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout (about a minute).  Checks that:
  1. every workload and metric name in BENCHMARK.json, which run.py
     reports from, is well formed and used once;
  2. a tiny-budget smoke of each workload completes with no failed check;
  3. two same-seed smokes agree exactly on the deterministic metrics;
  4. run.py, copied alone with BENCHMARK.json into an empty directory,
     fails without printing a result.
Exits non-zero on the first failed check.
"""

import os
import re
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Deterministic given the seed.  A tune smoke runs its pool on one domain,
# so no two workers race to simulate the same fresh key and its counters
# repeat exactly.  The serve workload's simulation counters depend on which
# tenant's request reaches a key first, so only its tune and held-out
# results are compared.
SAME_SEED = {
    "tune-opt": ["measure.simulations", "fitcache.sig_hits", "vm.steps", "vm.code_bytes"],
    "tune-adapt": ["measure.simulations", "fitcache.sig_hits", "vm.steps", "vm.code_bytes"],
    "serve-open": ["vm.code_bytes"],
}


def fail(msg):
    print(f"selftest FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_names():
    workloads, end_to_end, per_layer = run.declared()
    names = workloads + [n for n, _ in end_to_end + per_layer]
    bad = [n for n in names if not NAME.fullmatch(n)]
    if bad:
        fail(f"malformed metric or workload names: {bad}")
    if len(set(names)) != len(names):
        fail("a name is used twice")
    print(f"names: {len(names)} ok")


def smoke(workload, seed):
    return run.repetition(workload, seed, True, "--smoke")


def check_smokes():
    workloads, _, per_layer = run.declared()
    for w in workloads:
        a, b = smoke(w, 5), smoke(w, 5)
        for r in (a, b):
            if r["failed"] != 0:
                fail(f"{w} smoke: {r['failed']} of {r['attempted']} operations failed")
            if not r["layers"]:
                fail(f"{w} smoke has no traced window")
            # the tune workloads have no daemon, so no serve.* metrics
            have = set(r["layers"][0]) | set(r.get("serve", {})) | {"obs.trace_overhead"}
            missing = [n for n, _ in per_layer if n not in have
                       and not (n.startswith("serve.") and w != "serve-open")]
            if missing:
                fail(f"{w} smoke lacks per-layer metrics {missing}")
        for k in run.DETERMINISTIC:
            if a[k] != b[k]:
                fail(f"{w}: {k} differs between same-seed runs ({a[k]} vs {b[k]})")
        for k in SAME_SEED[w]:
            x, y = a["layers"][0][k], b["layers"][0][k]
            if x != y:
                fail(f"{w}: {k} differs between same-seed runs ({x} vs {y})")
        print(f"{w}: smoke ok, deterministic metrics repeat")


def check_isolated():
    iso = os.path.join(run.OUT, "_iso")  # '_' keeps dune out of the copy
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(os.path.join(iso, "perfbench"))
    shutil.copy("BENCHMARK.json", iso)
    for f in os.listdir("perfbench"):
        src = os.path.join("perfbench", f)
        if os.path.isfile(src):
            shutil.copy(src, os.path.join(iso, "perfbench"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tune-opt",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=iso, capture_output=True, text=True, timeout=180)
    shutil.rmtree(iso, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        fail("run.py succeeded or printed a result without the program's sources")
    print("isolated copy: fails without a result, as it should")


def main():
    if not run.build():
        fail("build")
    check_names()
    check_smokes()
    check_isolated()
    print("selftest ok")


if __name__ == "__main__":
    main()
