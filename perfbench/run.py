#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload tune-opt --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The script builds perfbench/perfbench.exe
from source with dune, then repeats the workload in fresh processes for
about --seconds seconds and reduces the repetitions to medians:

  --trace 0  every end-to-end metric (tracing off);
  --trace 1  every per-layer metric, from searches (tune workloads) or
             repetitions (serve-open) with the profiler on, alternated with
             unprofiled ones to measure the tracing overhead; serve-open's
             open-loop timings (serve.*) come from the unprofiled ones.

A tune repetition sets up once and runs its fixed-budget search twice on
a cleared fitness cache.

Set-up is repeated at least five times per run (extra set-up-only
processes where the workload's repetitions are fewer) and its median is
reported.  The last line of stdout is the result; details, provenance and
the traced run's spans and folded stacks go to perfbench/out/.  The exit
code is non-zero when the build fails, a repetition fails, or any output
check fails.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

def declared():
    """Workloads and (name, unit) metric lists, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ([w["name"] for w in bench["workloads"]],
            [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            [(m["name"], m["unit"]) for m in bench["per_layer"]])


# Results that are a pure function of the seed: every repetition must agree.
DETERMINISTIC = ("train_fitness", "heldout_total", "heldout_running")

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join("perfbench", "out")  # where perfbench.exe writes too
MIN_SETUPS = 5
RUN_DEADLINE_S = 170  # a run, build excluded, must end within 180 s


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    try:
        # no shared build cache: the build writes inside the checkout only
        env = dict(os.environ, DUNE_CACHE="disabled")
        r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        log(f"cannot run dune: {e}")
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def repetition(workload, seed, traced, *extra, timeout=RUN_DEADLINE_S):
    """One fresh process; its whole process group is stopped on timeout."""
    cmd = [EXE, workload, "--seed", str(seed), "--trace", "1" if traced else "0", *extra]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise RuntimeError(f"{workload} repetition timed out")
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)  # stray children of the repetition
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} repetition exited with {p.returncode}")
    return json.loads(lines[-1])


def source_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: identify the tree by the digest of its sources.
    h = hashlib.sha256()
    for root in ("lib", "perfbench"):
        for d, _, files in sorted(os.walk(root)):
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    with open(os.path.join(d, f), "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def samples(reps, key, traced):
    return [x["value"] for r in reps for x in r[key] if x["traced"] == traced]


def run(workload, seed, seconds, traced):
    start = time.monotonic()

    def left():
        return RUN_DEADLINE_S - (time.monotonic() - start)

    # Repeat processes until the next one would overrun the requested time.
    reps, durations = [], []
    while True:
        if workload == "serve-open":  # whole repetitions alternate
            args = [traced and len(reps) % 2 == 1]
        else:  # a tune repetition profiles one of its two searches, in turn
            args = [traced] + (["--profile-first"] if len(reps) % 2 == 1 else [])
        t0 = time.monotonic()
        reps.append(repetition(workload, seed, *args, timeout=left()))
        durations.append(time.monotonic() - t0)
        enough = samples(reps, "basis", False) and (
            not traced or samples(reps, "basis", True))
        if enough and time.monotonic() - start + statistics.median(durations) > seconds * 1.25:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(repetition(workload, seed, False, "--setup-only",
                                 timeout=left())["setup_s"])

    attempted = sum(int(r["attempted"]) for r in reps)
    failed = sum(int(r["failed"]) for r in reps)
    for k in DETERMINISTIC:
        if len({json.dumps(r[k]) for r in reps}) != 1:
            log(f"{k} differs between same-seed repetitions: {[r[k] for r in reps]}")
            failed += 1

    if not traced:
        values = {
            "setup_s": statistics.median(setups),
            "tune_s": statistics.median(samples(reps, "searches", False)),
            "ok_share": 1.0 - failed / attempted,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        for k in DETERMINISTIC:
            values[k] = statistics.median(r[k] for r in reps)
        spec = declared()[1]
    else:
        spec = declared()[2]
        windows = [w for r in reps for w in r["layers"]]
        # serve-open's open-loop timings, from the unprofiled repetitions
        served = [r["serve"] for r in reps if "serve" in r]
        served = [r["serve"] for r in reps if "serve" in r and not r["profiled"]] or served
        values = {}
        for name, _ in spec:
            if name.startswith("serve."):
                values[name] = statistics.median(s[name] for s in served) if served else 0.0
            elif name != "obs.trace_overhead":
                values[name] = statistics.median(w[name] for w in windows)
        values["obs.trace_overhead"] = (statistics.median(samples(reps, "basis", True))
                                        / statistics.median(samples(reps, "basis", False)))

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "rev": source_rev(), "nproc": os.cpu_count(),
        "provenance": reps[0].get("provenance"), "setups_s": setups,
        "repetitions": reps, "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    log(f"rev {record['rev']} nproc {record['nproc']} provenance "
        f"{json.dumps(record['provenance'])}; details in {path}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        workloads = declared()[0]
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if a.workload not in workloads:
        log(f"unknown workload {a.workload!r}; BENCHMARK.json declares {workloads}")
        return 2
    if not build():
        log("build failed")
        return 1
    try:
        result = run(a.workload, a.seed, a.seconds, a.trace == 1)
    except (RuntimeError, ValueError, KeyError) as e:
        log(f"failed: {e}")
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
