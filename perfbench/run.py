#!/usr/bin/env python3
"""perfbench runner: build the benchmark from the checkout, run one
workload, and print the result as the last line of standard output.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 10 --trace 0

--workload all runs every workload of BENCHMARK.json in turn and prefixes
each metric with its workload. signoff and campaign (LAYER_ONLY) run by
name too, but are not in BENCHMARK.json. --trace 1 reports the per-layer
metrics; as each belongs to one workload's layers, a traced run traces
every workload, LAYER_ONLY included.
The build lives in $CARGO_TARGET_DIR (default .bench_build) inside the
checkout; every input, output and trace of a run is written below it too.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 840  # configure + build; the first run may take 900 s
RUN_TIMEOUT_S = 170    # every workload of one invocation together
# Workloads whose layers (hier, mc, campaign) the traced run measures, but
# whose end-to-end figures spread past the largest allowed bound on a
# shared host, so BENCHMARK.json does not list them (see README.md).
LAYER_ONLY = ["signoff", "campaign"]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    base = base.resolve()
    if ROOT != base and ROOT not in base.parents:
        base = ROOT / ".bench_build"
    return base / "perfbench"


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_group(cmd, deadline, **kwargs):
    """Run `cmd` in its own process group until `deadline` (monotonic s).
    Returns (returncode, stdout) or None on timeout. Whatever the command
    leaves behind in its group is killed before returning."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()


def build(bdir):
    """Configure (once) and build the perfbench binary; returns its path."""
    bdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(bdir / "build.log", "w") as out:
        if not (bdir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            done = run_group(cmd, deadline, stdout=out,
                             stderr=subprocess.STDOUT)
            if done is None or done[0] != 0:
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                return None
        done = run_group(["cmake", "--build", str(bdir), "--target",
                          "perfbench", "-j", jobs], deadline, stdout=out,
                         stderr=subprocess.STDOUT)
    return bdir / "perfbench" if done is not None and done[0] == 0 else None


def run_workload(exe, bdir, workload, seed, seconds, trace, deadline):
    """Run one workload; returns the parsed perfbench record or None."""
    work = bdir / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces = bdir / "traces"
    traces.mkdir(exist_ok=True)
    env = dict(os.environ)
    for var in ("HSSTA_CACHE_DIR", "HSSTA_THREADS"):
        env.pop(var, None)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", str(traces / f"{workload}-seed{seed}.json"),
           "--repo-root", str(ROOT),
           "--worker-cmd", str(bdir / "hssta" / "hssta_cli")]
    try:
        done = run_group(cmd, deadline, cwd=work, env=env,
                         stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done is None:
        log(f"{workload}: out of time ({RUN_TIMEOUT_S} s for the run)")
        return None
    returncode, out = done
    record = None
    for line in out.splitlines():
        print(line)
        if line.startswith('{"perfbench":'):
            record = json.loads(line)["perfbench"]
    if record is None:
        log(f"{workload}: exited {returncode} without a result")
    return record


def select(metrics, specs, correct):
    """The result's metric block: exactly the metrics in `specs`. A run
    whose gates failed may lack some; a correct one must have them all."""
    out = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = metrics.get(name)
        if got is None:
            if correct:
                raise SystemExit(f"[perfbench] metric {name} missing")
            continue
        if got["unit"] != unit:
            raise SystemExit(f"[perfbench] metric {name}: unit {got['unit']}"
                             f" != {unit}")
        out[name] = {"value": got["value"], "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    known = names + [w for w in LAYER_ONLY if w not in names]
    if args.workload != "all" and args.workload not in known:
        ap.error(f"unknown workload {args.workload}; one of {known} or all")

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        log(f"build failed; see {bdir / 'build.log'}")
        return 1

    runs = list(names) if args.workload == "all" else [args.workload]
    if args.trace:
        # Every per-layer metric belongs to one workload's layers, and a
        # traced run reports all of them: it traces each workload in turn,
        # the requested one first.
        runs += [w for w in known if w not in runs]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    layer_metrics = {}
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for w in runs:
        rec = run_workload(exe, bdir, w, args.seed, args.seconds, args.trace,
                           deadline)
        if rec is None:
            return 1
        result["correct"] = result["correct"] and rec["correct"]
        result["attempted"] += rec["attempted"]
        result["failed"] += rec["failed"]
        if args.trace:
            layer_metrics.update(rec["metrics"])
            continue
        metrics = select(rec["metrics"], bench["end_to_end"], rec["correct"])
        if args.workload == "all":
            metrics = {f"{w}.{k}": v for k, v in metrics.items()}
        result["metrics"].update(metrics)
    if args.trace:
        result["metrics"] = select(layer_metrics, bench["per_layer"],
                                   result["correct"])
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
