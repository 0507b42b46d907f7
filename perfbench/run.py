"""convlab benchmark: one workload, closed loop, single process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload marginals --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed:
passes of the workload are repeated while another one fits in ``--seconds``
and each metric is the median over passes.  ``--trace 1`` runs one untraced
pass, installs the layer tracer, runs the same pass again and reports the
per-layer metrics; both passes must produce byte-identical outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it is
a JSON object of details: machine, thread settings, load, per-pass values,
the tail percentile used and the failure fraction.
"""

import os
import sys

# BLAS and OpenMP pools are pinned to one thread before numpy loads, here and
# in the set-up probes this process starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
ROUND_PASSES = 5      # passes in a run; every pass runs the rounds
NOMINAL_SECONDS = 30  # the run length Workload.long_passes is sized for
MIN_PASSES = 2

# Mean time of calibrate() on the reference machine when its host is quiet.
CALIBRATION_S = 1.3e-4

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "scenario_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import convlab and the property suites from this checkout's sources."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "convlab" / "__init__.py").is_file() or not (tests / "suites.py").is_file():
        raise SystemExit(f"perfbench: {ROOT} holds no convlab sources "
                         "(need src/convlab and tests/suites.py)")
    sys.path[:0] = [str(src), str(tests), str(HERE)]
    import convlab
    if Path(convlab.__file__).resolve().parent != (src / "convlab").resolve():
        raise SystemExit(f"perfbench: imported convlab from {convlab.__file__}, "
                         f"not from {src}")
    import workloads
    return workloads


def setup(workload: str, seed: int):
    """Import, load the defaults and build the seeded inputs of one pass."""
    workloads = load_program()
    from convlab import scenarios
    defaults = scenarios.load_defaults()
    return workloads, workloads.build_plan(workload, seed, defaults)


class PassResult:
    """Outputs, operation counts and per-unit times of one pass.

    A unit is one fixed job, one bulk seeded job or one round.  ``units``
    holds ``(index, kind, wall_s, cpu_s)`` per unit run, where ``index`` is
    the unit's place in the full pass, so repeats of a unit line up.
    """

    def __init__(self):
        self.outputs = []
        self.attempted = 0
        self.failed = 0
        self.round_cases = 0      # seeded cases certified in the rounds
        self.units = []
        self.wall = 0.0

    def add(self, kind, job, out):
        self.outputs.append((job.name, out.output))
        self.attempted += out.ops
        self.failed += out.failed
        if kind == "round":
            self.round_cases += out.ops - out.failed

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for name, text in self.outputs:
            h.update(name.encode() + b"\0" + text.encode() + b"\0")
        return h.hexdigest()[:16]


_CAL_X = [0.05 * i for i in range(15)]


def calibrate(samples: list) -> None:
    """Time a fixed kernel shaped like one GK15 panel and append the time.

    Fifteen calls of a Python closure, one small array and one dot product,
    twenty times over.  The kernel is part of the benchmark, so no change to
    convlab can change its time: only the machine can.
    """
    import numpy as np
    weights = np.linspace(0.1, 1.0, 15)
    t0 = time.perf_counter()
    acc = 0.0
    for j in range(20):
        f = lambda x, k=1 + j % 3: math.exp(-x * x * k)  # noqa: E731
        acc += float(weights @ np.array([f(x) for x in _CAL_X]))
    samples.append(time.perf_counter() - t0)


def run_pass(workloads, plan, before=None, long_units=True, calibration=None) -> PassResult:
    """One pass: the fixed jobs, the bulk seeded calls, then the rounds.

    With ``long_units`` false only the rounds run.  With a ``calibration``
    list, calibrate() runs after every unit and appends to it.
    """
    res = PassResult()
    clock, cpu = time.perf_counter, time.process_time
    units = [("fixed", (job,)) for job in plan.fixed]
    units += [("bulk", (job,)) for job in plan.bulk]
    units += [("round", rnd) for rnd in plan.rounds]
    gc.collect()
    if before is not None:
        before()
    t0 = clock()
    for index, (kind, jobs) in enumerate(units):
        if kind != "round" and not long_units:
            continue
        s, c = clock(), cpu()
        outs = [workloads.run_job(job) for job in jobs]
        res.units.append((index, kind, clock() - s, cpu() - c))
        if calibration is not None:
            calibrate(calibration)
        for job, out in zip(jobs, outs):
            res.add(kind, job, out)
    res.wall = clock() - t0
    return res


def long_passes(workload, seconds: float) -> int:
    """How many of the ROUND_PASSES passes of a run also run the long units.

    The workload's ``long_passes`` at NOMINAL_SECONDS, scaled with
    ``--seconds`` and kept between MIN_PASSES and ROUND_PASSES.
    """
    n = round(workload.long_passes * seconds / NOMINAL_SECONDS)
    return min(ROUND_PASSES, max(MIN_PASSES, n))


def tail(latencies):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} latency samples, got {n}")
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def setup_probe_times(args, calibration: list) -> list:
    """Set-up time of fresh processes, each measured from inside the process.

    calibrate() runs after each of them and appends to ``calibration``.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT),
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        calibrate(calibration)
    return times


def machine() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg": list(os.getloadavg()),
    }


def measure(args):
    """--trace 0: several passes; each unit is timed at its fastest pass."""
    calibration = []
    setup_times = setup_probe_times(args, calibration)
    workloads, plan = setup(args.workload, args.seed)
    n_long = long_passes(plan.workload, args.seconds)
    # spread the passes that run the long units evenly over the run
    with_long = {round(k * (ROUND_PASSES - 1) / (n_long - 1)) for k in range(n_long)}
    passes = [run_pass(workloads, plan, long_units=i in with_long,
                       calibration=calibration)
              for i in range(ROUND_PASSES)]

    times = {}
    for p in passes:
        for index, kind, w, c in p.units:
            times.setdefault(index, (kind, [], []))
            times[index][1].append(w)
            times[index][2].append(c)
    kinds = [times[i][0] for i in sorted(times)]
    wall = [min(times[i][1]) for i in sorted(times)]
    cpu = [min(times[i][2]) for i in sorted(times)]
    rounds = [w for w, k in zip(wall, kinds) if k == "round"]
    full = passes[min(with_long)]
    tail_pct, tail_s = tail(rounds)
    raw = {
        "setup_s": statistics.median(setup_times),
        "wall_s": math.fsum(wall),
        "cpu_s": math.fsum(cpu),
        "scenario_s": math.fsum(w for w, k in zip(wall, kinds) if k == "fixed"),
        "cases_per_s": full.round_cases / math.fsum(rounds),
        "case_p50_ms": 1e3 * statistics.median(rounds),
        "case_tail_ms": 1e3 * tail_s,
    }
    # Times scaled to the reference machine's speed: the host's other
    # tenants slow this one by a share that drifts over minutes, and the
    # calibration kernel, timed all through the run, measures that share.
    speed = CALIBRATION_S / statistics.fmean(calibration)
    values = {k: v / speed if k == "cases_per_s" else v * speed for k, v in raw.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    seen = {}
    consistent = all(seen.setdefault(name, text) == text
                     for p in passes for name, text in p.outputs)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "machine": machine(),
        "raw": raw,
        "speed": speed,
        "calibration": {"n": len(calibration), "mean_s": statistics.fmean(calibration),
                        "median_s": statistics.median(calibration),
                        "min_s": min(calibration)},
        "passes": ROUND_PASSES,
        "passes_with_long_units": n_long,
        "pass_wall_s": [p.wall for p in passes],
        "setup_samples_s": setup_times,
        "tail_percentile": tail_pct,
        "latency_samples": len(rounds),
        "fixed_job_s": {job.name: w for job, w in zip(plan.fixed, wall)},
        "fail_frac": failed / attempted,
        "to_json_errors": sorted(workloads.TO_JSON_ERRORS),
        "output_digest": full.digest,
        "outputs_repeat": consistent,
    }
    correct = failed == 0 and consistent
    return correct, attempted, failed, values, END_TO_END, details


def traced(args):
    """--trace 1: an untraced pass, then the same pass traced."""
    workloads, plan = setup(args.workload, args.seed)
    import layertrace
    base = run_pass(workloads, plan)
    tracer = layertrace.Tracer()
    tracer.install()
    gaps = tracer.coverage_gaps()
    res = run_pass(workloads, plan, before=tracer.reset)
    values = tracer.metrics(res.wall, base.wall)
    total = tracer.layer_self_total(res.wall)
    same = res.outputs == base.outputs
    details = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "machine": machine(),
        "untraced_wall_s": base.wall,
        "traced_wall_s": res.wall,
        "self_time_sum_s": total,
        "outputs_identical": same,
        "coverage_gaps": gaps,
        "fail_frac": res.failed / res.attempted,
        "to_json_errors": sorted(workloads.TO_JSON_ERRORS),
        "output_digest": [base.digest, res.digest],
        "spans": {f"{k[0]}:{k[1]}": v for k, v in sorted(tracer.stats.items()) if v[0]},
    }
    correct = (same and not gaps and res.failed == 0 and base.failed == 0
               and abs(total - res.wall) <= 1e-6 * max(1.0, res.wall))
    return (correct, base.attempted + res.attempted, base.failed + res.failed,
            values, layertrace.PER_LAYER, details)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup(args.workload, args.seed)
        print(repr(time.perf_counter() - T_PROCESS))
        return 0

    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    run = traced if args.trace else measure
    correct, attempted, failed, values, units, details = run(args)
    for name, unit in units.items():
        print(f"{name:36s} {values[name]:>16.6g} {unit}")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
