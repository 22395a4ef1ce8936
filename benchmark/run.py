#!/usr/bin/env python3
"""Benchmark of the antiprelie toolkit.

  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports antiprelie from its
`src/` directory.  Each workload runs in fresh single-threaded
processes: set-up samples, one worker that makes a warm-up round and
then times whole rounds for S seconds, and a checker that judges the
warm-up outputs against independent references.  The last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  The end-to-end
times are scaled to a reference host speed by calibration loops run in
the same processes (see calibration.py).  Result and span files are
written to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from calibration import REFERENCE_S
from spec import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CATALOG = SRC / "antiprelie" / "data" / "catalog.json"
SETUP_SAMPLES = 5
# calibration loops a job time is scaled by: about a second of job time
CAL_WINDOW = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# span name -> per-layer metric, where the plain "<span>_ms" rule does
# not apply
SPAN_METRICS = {"cli.main": "cli.self_ms",
                "cocycles.scan": "cocycles.scan_ms",
                "cocycles.brute_force_Z2": "cocycles.deformations_ms",
                "bench.job": "trace.harness_ms"}
MICRO_SPANS = {"linalg.det": "linalg.det_us"}


def child_env():
    """One thread per process, no worker override, imports from src/."""
    env = dict(os.environ)
    env.pop("APL_WORKERS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, timeout):
    proc = subprocess.run([sys.executable, *map(str, args)], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(str(args[0])).name} failed "
                           f"({proc.returncode}):\n{proc.stderr[-4000:]}")
    return proc.stdout


def scaled_job_seconds(result):
    """Each job time as it would read at the reference host speed: times
    the reference loop time over the median of the CAL_WINDOW
    calibration loops run nearest to the job."""
    ref = REFERENCE_S[result["calibration_kind"]]
    after = result["calibration_after"]
    loops = result["calibration_seconds"]
    last = max(0, len(loops) - CAL_WINDOW)
    out = []
    for i, dt in enumerate(result["job_seconds"]):
        lo = min(max(0, bisect.bisect_left(after, i) - CAL_WINDOW // 2), last)
        out.append(dt * ref / statistics.median(loops[lo:lo + CAL_WINDOW]))
    return out


def typical_round(result):
    """Each job's median scaled time over the timed rounds: a slow
    stretch of one round on a shared machine moves it less than a plain
    mean."""
    n = result["jobs_per_round"]
    times = scaled_job_seconds(result)
    return [statistics.median(times[i::n]) for i in range(n)]


def end_to_end(setups, result):
    typical = typical_round(result)
    setup = statistics.median(
        s["setup_s"] * REFERENCE_S["interpreter"] / s["calibration_s"]
        for s in setups)
    return {
        "setup_s": (setup, "s"),
        "jobs_per_s": (len(typical) / sum(typical), "1/s"),
        "job_ms.p50": (statistics.median(typical) * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(setups, result, names):
    """Per-layer metrics of a traced run: summed self time per job, and
    counts per round.  Times are as measured, not scaled;
    host.calibration_ms gives the speed they were measured at."""
    trace = result["trace"]
    jobs = len(result["job_seconds"])
    rounds = result["rounds"]
    out = {name: (0.0, unit) for name, unit in names.items()}

    def put(name, value):
        if name not in out:
            raise KeyError(f"metric {name} is not declared in BENCHMARK.json")
        out[name] = (value, out[name][1])

    for span, seconds in trace["self_s"].items():
        if span in MICRO_SPANS:
            put(MICRO_SPANS[span], seconds / jobs * 1e6)
        else:
            put(SPAN_METRICS.get(span, span + "_ms"), seconds / jobs * 1e3)
    put("algebra.multiply_calls",
        trace["counts"].get("algebra.multiply_calls", 0) / rounds)
    put("cocycles.solutions", trace["solutions"] / rounds)
    put("cocycles.family_members", trace["members"] / rounds)
    scan_s = trace["self_s"].get("cocycles.scan", 0.0)
    put("cocycles.scan_cand_per_s",
        trace["candidates"] / scan_s if scan_s else 0.0)
    anti_o = {passed: n for name, passed, n in trace["results"]
              if name == "operators.check_anti_o"}
    tried = sum(anti_o.values())
    put("operators.anti_o_ratio", anti_o.get(True, 0) / tried if tried else 0)
    for name, value in trace["ops"].items():
        if name in out:
            put(name, value)
    for key in ("import_numpy", "import_antiprelie", "catalog", "inputs"):
        put(f"setup.{key}_ms",
            statistics.median(s[f"{key}_s"] for s in setups) * 1e3)
    put("host.calibration_ms",
        statistics.median(result["calibration_seconds"]) * 1e3)
    traced = sum(result["job_seconds"])
    put("trace.job_ms", traced / jobs * 1e3)
    put("trace.overhead_pct",
        (traced / rounds / result["warmup_seconds"] - 1) * 100)
    return out


def judge(result, verdict):
    """(correct, attempted, failed) from the checker's per-job verdicts."""
    per_round = result["jobs_per_round"]
    bad = [i for i, ok in enumerate(verdict["verdicts"]) if not ok]
    mismatched = {tuple(m) for m in result["mismatched"]}
    attempted = len(result["job_seconds"])
    failed = result["rounds"] * len(bad) + sum(
        1 for m in mismatched if len(m) == 2 and m[1] not in bad)
    correct = (len(verdict["verdicts"]) == per_round
               and attempted == per_round * result["rounds"]
               and all(verdict["checks"].values())
               and all(verdict["known_fault"][i] for i in bad)
               and not mismatched)
    return correct, attempted, failed


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and waits for
    # the running child, and through the clean-up of the scratch directory
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "antiprelie" / "__init__.py").is_file():
        print(f"error: no antiprelie sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}

    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_SAMPLES):
            sub = workdir / f"setup-{i}"
            sub.mkdir(parents=True)
            setups.append(json.loads(run_child(
                [HERE / "worker.py", "setup", args.workload, args.seed, sub],
                timeout=30)))
        run_dir = workdir / "run"
        run_dir.mkdir()
        run_child([HERE / "worker.py", "run", args.workload, args.seed,
                   run_dir, args.seconds, args.trace], timeout=140)
        with open(run_dir / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)
        verdict = json.loads(run_child(
            [HERE / "check.py", args.workload, args.seed,
             run_dir / "warmup.jsonl", CATALOG], timeout=60))
        correct, attempted, failed = judge(result, verdict)
        if args.trace:
            metrics = per_layer(setups, result, declared)
        else:
            metrics = end_to_end(setups, result)
        line = {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({**line, "rounds": result["rounds"],
                       "checks": verdict["checks"],
                       "notes": verdict["notes"]}, fh, indent=1)
        shutil.copy(run_dir / "result.json", out_dir / f"{stem}.raw.json")
        if args.trace:
            shutil.copy(run_dir / "spans.json", out_dir / f"{stem}.spans.json")
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_run").rmdir()
        except OSError:
            pass
    for note in verdict["notes"]:
        print(f"check: {note}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
