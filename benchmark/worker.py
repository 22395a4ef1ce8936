"""One workload in one fresh, single-threaded process.

  worker.py setup WORKLOAD SEED WORKDIR
      time the set-up (import numpy and antiprelie, load the catalog,
      build the inputs through the API), then the interpreter
      calibration loop, and print both as JSON.
  worker.py run WORKLOAD SEED WORKDIR SECONDS TRACE
      set up, make one warm-up round (untimed, its outputs go to the
      checker), then time whole rounds until SECONDS of job time have
      passed.  The workload's calibration loop runs between jobs, after
      every `calibration.EVERY_S` of job time, and is timed apart from
      them.  Every timed output is compared with the warm-up output of
      the same job.  Writes WORKDIR/result.json and WORKDIR/warmup.jsonl;
      with TRACE=1 also WORKDIR/spans.json.
"""
import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(workload, seed, workdir):
    import numpy  # noqa: F401
    t_numpy = time.perf_counter()
    import antiprelie  # noqa: F401
    t_apl = time.perf_counter()
    import workloads
    workloads.cat.load_catalog()
    t_catalog = time.perf_counter()
    inputs = workloads.build_inputs(workload, seed, workdir)
    t_end = time.perf_counter()
    return inputs, {"setup_s": t_end - T_START,
                    "import_numpy_s": t_numpy - T_START,
                    "import_antiprelie_s": t_apl - t_numpy,
                    "catalog_s": t_catalog - t_apl,
                    "inputs_s": t_end - t_catalog}


def timed_loop(loop):
    """Time of one calibration loop, with the garbage collector off so
    that the size of the program's heap does not enter it."""
    gc.disable()
    t0 = time.perf_counter()
    loop()
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def calibrate(loop, times=5):
    """Median time of a calibration loop."""
    return statistics.median(timed_loop(loop) for _ in range(times))


class Recorder:
    """The `call` handed to a round: times each job and keeps its result,
    and times the calibration loop between jobs."""

    def __init__(self, loop, every, tracer=None):
        self.loop = loop
        self.every = every
        self.tracer = tracer
        self.jobs = []          # (label, meta, result, cli_out, seconds)
        self.calibration = []   # (index of the job before, loop seconds)
        self._since = 0.0

    def __call__(self, label, fn, *args, meta=None, cli_out=None):
        clock = time.perf_counter
        if self.tracer is None:
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
        else:
            self.tracer.job += 1
            root = "cli.main" if cli_out else "bench.job"
            t0 = clock()
            out = self.tracer.root(root, fn, *args)
            dt = clock() - t0
        self.jobs.append((label, meta, out, cli_out, dt))
        self._since += dt
        if self._since >= self.every:
            self._since = 0.0
            self.calibration.append((len(self.jobs) - 1,
                                     timed_loop(self.loop)))
        return out

    def outputs(self, plain):
        """Serialized outputs of the round, after its timing ended."""
        texts = []
        for label, meta, out, cli_out, _ in self.jobs:
            if cli_out:
                with open(cli_out, encoding="utf-8") as fh:
                    report = json.load(fh)
                texts.append(json.dumps({"rc": out, "report": report},
                                        sort_keys=True))
            else:
                texts.append(json.dumps(plain(out), sort_keys=True))
        return texts


def op_timings(workloads, name, inputs):
    """Field operations and coefficient parsing timed on operands drawn
    from the workload's own inputs."""
    ops, texts = workloads.scalar_operands(name, inputs)
    clock = time.perf_counter

    def per_op(pairs, op):
        if not pairs:
            return 0.0
        reps = max(1, 20000 // len(pairs))
        samples = []
        for _ in range(5):
            t0 = clock()
            for _ in range(reps):
                for x, y in pairs:
                    op(x, y)
            samples.append((clock() - t0) / (reps * len(pairs)))
        return statistics.median(samples)

    def pairs_of(values):
        by_field = {}
        for v in values:
            by_field.setdefault(v.field, []).append(v)
        out = []
        for group in by_field.values():
            out += list(zip(group, group[1:] + group[:1]))
        return out

    out = {}
    for kind in ("poly", "Q", "GF"):
        pairs = pairs_of(ops[kind])
        out[f"scalars.mul_ns.{kind}"] = per_op(pairs, lambda x, y: x * y) * 1e9
        out[f"scalars.add_ns.{kind}"] = per_op(pairs, lambda x, y: x + y) * 1e9
    out["scalars.parse_us"] = per_op(texts, lambda f, t: f.parse(t)) * 1e6
    return out


def run(workload, seed, workdir, seconds, trace):
    inputs, setup_times = setup(workload, seed, workdir)
    import workloads
    import tracing
    import calibration
    from spec import CALIBRATION
    loop = calibration.LOOPS[CALIBRATION[workload]]
    every = calibration.EVERY_S

    devnull = open(os.devnull, "w", encoding="utf-8")
    with devnull, contextlib.redirect_stderr(devnull):
        warm = Recorder(loop, every)
        workloads.run_round(workload, inputs, warm)
        warm_seconds = sum(dt for *_, dt in warm.jobs)
        reference = warm.outputs(workloads.to_plain)
        with open(workdir / "warmup.jsonl", "w", encoding="utf-8") as fh:
            for (label, meta, *_), text in zip(warm.jobs, reference):
                fh.write(json.dumps({"label": label, "meta": meta,
                                     "output": json.loads(text)},
                                    sort_keys=True) + "\n")
        del warm

        tracer = tracing.Tracer() if trace else None
        if tracer:
            tracer.install()
        job_seconds, mismatched, rounds = [], [], 0
        cal_after, cal_seconds = [], []
        while rounds == 0 or sum(job_seconds) < seconds:
            gc.collect()
            rec = Recorder(loop, every, tracer)
            workloads.run_round(workload, inputs, rec)
            rounds += 1
            cal_after += [len(job_seconds) + i for i, _ in rec.calibration]
            cal_seconds += [dt for _, dt in rec.calibration]
            job_seconds += [dt for *_, dt in rec.jobs]
            texts = rec.outputs(workloads.to_plain)
            if len(texts) != len(reference):
                mismatched.append(("round", rounds, len(texts)))
            else:
                mismatched += [(rounds, i) for i, (a, b)
                               in enumerate(zip(texts, reference)) if a != b]
        if tracer:
            tracer.uninstall()

    result = {"setup": setup_times, "rounds": rounds,
              "warmup_seconds": warm_seconds,
              "jobs_per_round": len(reference), "job_seconds": job_seconds,
              "calibration_kind": CALIBRATION[workload],
              "calibration_after": cal_after,
              "calibration_seconds": cal_seconds,
              "mismatched": mismatched,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        result["trace"] = {
            "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "results": [[k[0], k[1], v] for k, v in tracer.results.items()],
            "candidates": tracer.candidates, "solutions": tracer.solutions,
            "members": tracer.members,
            "ops": op_timings(workloads, workload, inputs)}
        with open(workdir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "job", "name", "start",
                                  "end"], "spans": tracer.spans}, fh)
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    mode, workload, seed, workdir = argv[:4]
    workdir = Path(workdir)
    if mode == "setup":
        _, times = setup(workload, int(seed), workdir)
        import calibration
        times["calibration_s"] = calibrate(calibration.interpreter)
        print(json.dumps(times))
    elif mode == "run":
        run(workload, int(seed), workdir, float(argv[4]), argv[5] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
