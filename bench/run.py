"""Closed-loop benchmark of matchkit's engines.

One caller in one process on one thread runs a seeded list of jobs (a
*pass*) over and over, each job the public-API pipeline of one CLI
command fed with generated JSON text.  Whole passes repeat as long as
the next one is expected to end within ``--seconds``.  Each job is timed
as the median of its repeats; the metrics are taken over those per-job
medians, so every run of a workload weighs the same jobs equally.

Times are paced against a fixed pure-Python reference loop, run between
jobs: see ``HostPace``.  The report prints the raw times next to the
paced ones.

    python3 bench/run.py --workload ft-solve --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all

``--trace 1`` runs one pass untraced, then wraps the public functions of
each matchkit layer and reports per-layer counts and self times; the
spans are written to ``.bench_out/``.  See NOTES.md for the workloads
and what each metric is expected to show.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every set-up probe.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from math import factorial, inf
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 1  # seed 2 is held out; digests.json records both
SETUP_PROBES = 3
WORKLOAD_NAMES = ("ft-solve", "pq-audit", "exhaustive", "core-search")
TAIL_BEYOND = 10

# Roughly the reference loop's time on the 2-core host the bounds were
# tuned on, so paced times read close to raw ones there.  Only ratios
# between runs matter.
REF_NOMINAL_S = 0.8e-3
REF_EVERY_S = 0.05


def reference():
    """Fixed pure-Python work that calls no matchkit code.

    A mix of the operations the engines spend their time on: integer and
    float arithmetic, list building and sorting, dict updates, Fractions.
    """
    total = 0
    for i in range(6000):
        total += i * i % 7
    rows = [[(i * 7919 + j * 104729) % 1009 / 7.0 for j in range(30)] for i in range(30)]
    counts = {}
    for row in rows:
        row.sort()
        for value in row:
            counts[value] = counts.get(value, 0) + 1
    harmonic = Fraction(0)
    for k in range(1, 40):
        harmonic += Fraction(1, k)
    return total, len(counts), harmonic


class HostPace:
    """Samples of the reference loop's time, taken between jobs.

    On a shared host the speed of this process drifts by tens of percent
    over seconds to minutes, with the load of other tenants.  The drift
    slows the reference loop as much as it slows a job, while a change to
    matchkit does not touch the loop.  So a job's paced time is its raw
    time scaled by REF_NOMINAL_S over the host's loop time around the
    job: the median of the samples taken from one job-length before it
    starts to one job-length after it ends, and at least the samples just
    before and just after it.
    """

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.samples: list[float] = []

    def sample(self) -> None:
        best = inf
        for _ in range(3):
            start = perf_counter()
            reference()
            best = min(best, perf_counter() - start)
        self.times.append(perf_counter())
        self.samples.append(best)

    def mark(self) -> None:
        """Take a sample unless the last one is under REF_EVERY_S old."""
        if not self.times or perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Pacing factor for a job that ran from `start` to `end`."""
        span = end - start
        lo = min(bisect_left(self.times, start - span), bisect_left(self.times, start) - 1)
        hi = max(bisect_right(self.times, end + span), bisect_left(self.times, end) + 1)
        return REF_NOMINAL_S / statistics.median(self.samples[max(lo, 0):hi])


def load_package():
    """Import matchkit from this checkout's sources, nowhere else."""
    if not (SRC / "matchkit" / "__init__.py").is_file():
        sys.exit(f"bench: no matchkit sources at {SRC / 'matchkit'}")
    sys.path.insert(0, str(SRC))
    import matchkit

    if Path(matchkit.__file__).resolve().parent != (SRC / "matchkit").resolve():
        sys.exit(f"bench: imported matchkit from {matchkit.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup(workload, seed):
    """Import, generate and serialize the inputs, warm each job kind once."""
    wl = load_package()
    jobs = wl.WORKLOADS[workload](seed)
    for job in wl.warmup_jobs(jobs):
        try:
            wl.RUNNERS[job.kind](*job.args)
        except (wl.mk.MatchkitError, AssertionError):
            pass
    return wl, jobs


def measure_setup(workload, seed, pace):
    """Median time from a fresh interpreter to the end of set-up,
    paced and raw."""
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        pace.sample()
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--probe"]
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        pace.sample()
        times.append(elapsed * pace.scale(start, start + elapsed))
        raw.append(elapsed)
    return statistics.median(times), statistics.median(raw)


class Run:
    """Durations and outcomes of every execution of a job list."""

    def __init__(self, jobs, pace=None):
        self.jobs = jobs
        self.pace = pace
        self.durations = [[] for _ in jobs]  # raw seconds
        self.spans = [[] for _ in jobs]  # (start, end) of each run
        self.canon = [None] * len(jobs)
        self.bad = [False] * len(jobs)  # the job's output failed its check
        self.failures = []  # why jobs failed their checks
        self.problems = []  # integrity faults: these make the run incorrect
        self.passes = 0

    @property
    def attempted(self):
        """Distinct jobs run at least once.

        Every pass runs the whole list and a job's output may not change
        between passes, so counting jobs, not executions, keeps both
        counts a function of the seed alone, not of how many passes fit
        in the time.
        """
        return sum(1 for canon in self.canon if canon is not None)

    @property
    def failed(self):
        """Distinct jobs that raised or failed their check."""
        return sum(1 for slot, canon in enumerate(self.canon) if canon is not None
                   and (self.bad[slot] or canon.startswith("error:")))

    def pass_seconds(self, k):
        return sum(d[k] for d in self.durations)

    def paced(self):
        """Per-job lists of paced durations."""
        return [[(end - start) * self.pace.scale(start, end) for start, end in spans]
                for spans in self.spans]


def execute(wl, run, slot, tracer=None, job_id=-1):
    job = run.jobs[slot]
    runner = wl.RUNNERS[job.kind]
    error = None
    if run.pace is not None:
        run.pace.mark()
    if tracer is not None:
        tracer.begin_job(job_id, job.kind)
    start = perf_counter()
    try:
        out = runner(*job.args)
    except (wl.mk.MatchkitError, AssertionError) as exc:
        error = exc
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_job()
    run.durations[slot].append(elapsed)
    run.spans[slot].append((start, start + elapsed))
    if error is not None:
        canon = f"error:{type(error).__name__}"
    else:
        canon = wl.CANON[job.kind](out)
    if run.canon[slot] is None:
        run.canon[slot] = canon
        if error is None:
            problem = wl.CHECKS[job.kind](job, out)
            if problem is not None:
                run.bad[slot] = True
                run.failures.append(f"{job.label}: {problem}")
    elif run.canon[slot] != canon:
        run.problems.append(f"{job.label}: output changed between passes")


def loop(wl, jobs, seconds, min_passes, tracer=None, pace=None):
    """At least `min_passes` whole passes, then more while another pass of
    the mean length so far still ends within `seconds`."""
    run = Run(jobs, pace)
    start = perf_counter()
    while run.passes < min_passes or (
        (perf_counter() - start) * (run.passes + 1) / run.passes <= seconds
    ):
        for slot in range(len(jobs)):
            execute(wl, run, slot, tracer, run.passes * len(jobs) + slot)
        run.passes += 1
    if pace is not None:
        pace.sample()
    return run


# --- statistics -------------------------------------------------------------


def latency(times):
    """Median and tail of per-job times, in ms.

    The tail is the highest percentile with at least ten samples beyond
    it; None when that would not lie above the median.
    """
    ordered = sorted(times)
    count = len(ordered)
    p50 = statistics.median(ordered) * 1e3
    if count <= 2 * TAIL_BEYOND:
        return p50, None, None, count
    index = count - TAIL_BEYOND - 1
    return p50, ordered[index] * 1e3, 100.0 * (index + 1) / count, count


def summarize(run):
    """Per-job median times (paced and raw), slots by kind, times by size
    and input class, and the number of jobs that passed."""
    paced = [statistics.median(d) for d in run.paced()]
    raw = [statistics.median(d) for d in run.durations]
    kinds, sizes = {}, {}
    for slot, job in enumerate(run.jobs):
        kinds.setdefault(job.kind, []).append(slot)
        sizes.setdefault((job.kind, job.label.split(" p=")[0]), []).append(paced[slot])
    passed = sum(1 for slot in range(len(run.jobs)) if not run.bad[slot]
                 and not run.canon[slot].startswith("error:"))
    return paced, raw, kinds, sizes, passed


def digest(wl, run):
    """Digest of all outputs, and a hash per job that passed its check."""
    jobs = {str(slot): wl.canon_hash(c) for slot, c in enumerate(run.canon)
            if not c.startswith("error:") and not run.bad[slot]}
    text = "\n".join(f"{slot}:{c}" for slot, c in enumerate(run.canon))
    return wl.canon_hash(text), jobs


def check_digest(workload, seed, overall, jobs, problems):
    """Compare with the recorded digest of this seed, if one is recorded.

    Every job that passed its check when the digest was recorded must
    pass again with the same output.  Jobs that failed then may pass now.
    """
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return "not recorded for this seed"
    for slot, expected in recorded["jobs"].items():
        if jobs.get(slot) != expected:
            problems.append(f"digest: job {slot} no longer passes with the recorded output")
    if any(p.startswith("digest:") for p in problems):
        return f"MISMATCH (recorded {recorded['digest']})"
    if overall == recorded["digest"]:
        return "matches the recorded digest"
    return "recorded outputs match; some jobs that failed when recorded now pass"


def record_digest(workload, seed, overall, jobs):
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data.setdefault(workload, {})[str(seed)] = {"digest": overall, "jobs": jobs}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def environment():
    import numpy
    import scipy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
            f"OMP/OPENBLAS/MKL threads {os.environ['OMP_NUM_THREADS']}")


def show(name, value, unit, note=""):
    print(f"  {name:<24} {value:>12.4f} {unit:<4} {note}".rstrip())


# --- one workload -----------------------------------------------------------


def bench_workload(workload, seed, seconds, record):
    wl, jobs = setup(workload, seed)
    pace = HostPace()
    setup_s, setup_raw = measure_setup(workload, seed, pace)
    gc.collect()
    run = loop(wl, jobs, seconds, 1, pace=pace)
    paced, raw, kinds, sizes, passed = summarize(run)
    p50, tail, pct, count = latency(paced)
    raw50, rawtail, _, _ = latency(raw)
    jobs_per_s = passed / sum(paced)
    overall, job_hashes = digest(wl, run)
    if record:
        record_digest(workload, seed, overall, job_hashes)
    verdict = check_digest(workload, seed, overall, job_hashes, run.problems)

    print(f"workload {workload}  seed {seed}  {len(jobs)} jobs/pass  {run.passes} passes")
    print(f"  {environment()}")
    print(f"  reference loop: median {statistics.median(pace.samples) * 1e3:.3f} ms over "
          f"{len(pace.samples)} samples, nominal {REF_NOMINAL_S * 1e3:.3f} ms")
    show("setup_s", setup_s, "s",
         f"median of {SETUP_PROBES} fresh interpreters (raw {setup_raw:.4f})")
    show("jobs_per_s", jobs_per_s, "1/s",
         f"{passed} passing jobs over one pass (raw {passed / sum(raw):.4f})")
    show("p50_ms", p50, "ms",
         f"{count} jobs, each the median of {run.passes} runs (raw {raw50:.4f})")
    show("tail_ms", tail, "ms", f"p{pct:.1f} of {count} jobs (raw {rawtail:.4f})")
    show("failed_frac", run.failed / run.attempted, "",
         f"{run.failed} of {run.attempted} jobs, each run {run.passes} times")
    for kind, slots in kinds.items():
        k50, ktail, kpct, kcount = latency([paced[s] for s in slots])
        show(f"{kind}_p50_ms", k50, "ms", f"{kcount} jobs")
        if ktail is not None:
            show(f"{kind}_tail_ms", ktail, "ms", f"p{kpct:.1f} of {kcount} jobs")
        failed = sum(1 for s in slots if run.bad[s] or run.canon[s].startswith("error:"))
        show(f"{kind}_failed_frac", failed / len(slots), "", f"{failed} of {len(slots)} jobs")
    for (kind, label), values in sorted(sizes.items()):
        print(f"    {kind:<9} {label:<34} p50 {statistics.median(values) * 1e3:10.3f} ms"
              f"  ({len(values)} jobs)")
    _print_outcomes(run, overall, verdict)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (jobs_per_s, "1/s"),
        "p50_ms": (p50, "ms"),
        "tail_ms": (tail, "ms"),
    }
    return not run.problems, run.attempted, run.failed, metrics


def trace_workload(workload, seed, seconds, record):
    import spans as tr

    wl, jobs = setup(workload, seed)
    gc.collect()
    untraced = loop(wl, jobs, 0, 1)
    tracer = tr.Tracer()
    tracer.install()
    try:
        run = loop(wl, jobs, seconds, 2, tracer)
    finally:
        tracer.uninstall()
    passes = tr.summarize(tracer, len(jobs))
    first = tr.count_signature(passes[0])
    for k, agg in enumerate(passes[1:], start=1):
        if tr.count_signature(agg) != first:
            run.problems.append(f"trace: counts of pass {k} differ from pass 0")
    metrics = tr.layer_metrics(passes, untraced.pass_seconds(0) * 1e9)
    overall, job_hashes = digest(wl, run)
    if record:
        record_digest(workload, seed, overall, job_hashes)
    verdict = check_digest(workload, seed, overall, job_hashes, run.problems)

    print(f"workload {workload}  seed {seed}  traced  {len(jobs)} jobs/pass  "
          f"{run.passes} traced passes  {len(tracer.spans)} spans")
    print(f"  {environment()}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        show(name, value, unit)
    print(f"  untraced pass {untraced.pass_seconds(0):.3f} s, traced passes "
          + ", ".join(f"{agg['job_ns'] / 1e9:.3f} s" for agg in passes))
    _print_self_shares(tracer, jobs)
    _print_oracle_leaves(tracer, jobs)
    _print_assignment_calls(tracer, jobs)
    _print_outcomes(run, overall, verdict)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.csv"
    tracer.write(path, f"workload={workload} seed={seed} jobs_per_pass={len(jobs)} "
                 f"{environment()}")
    print(f"  spans written to {path.relative_to(ROOT)}")
    return not run.problems, run.attempted, run.failed, metrics


def _print_outcomes(run, overall, verdict):
    print(f"  digest {overall}: {verdict}")
    for failure, count in sorted(Counter(run.failures).items()):
        print(f"  FAILED {failure} ({count} jobs)")
    for problem in run.problems:
        print(f"  INCORRECT {problem}")


def _print_self_shares(tracer, jobs):
    """Share of each job kind's self time held by each function."""
    import spans as tr

    by_kind = {}
    for span, own in zip(tracer.spans, tr.self_times(tracer.spans)):
        index, job = span[0], span[2]
        shares = by_kind.setdefault(jobs[job % len(jobs)].kind, Counter())
        shares[tracer.names[index]] += own
    for kind, shares in by_kind.items():
        total = sum(shares.values())
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        print(f"  self time of {kind}: "
              + ", ".join(f"{name} {100 * ns / total:.1f}%" for name, ns in top))


def _print_oracle_leaves(tracer, jobs):
    """Detector calls per existence-oracle call, by size and outcome."""
    names, spans = tracer.names, tracer.spans
    leaves = {}
    for index, parent, job, start, end, value in spans:
        if (names[index] == "cycles.find_positive_cycle" and parent >= 0
                and names[spans[parent][0]] == "partial_transfer.exists_pq_stable"):
            leaves[parent] = leaves.get(parent, 0) + 1
    groups = {}
    for sid, (index, parent, job, start, end, value) in enumerate(spans):
        if names[index] != "partial_transfer.exists_pq_stable":
            continue
        if names[spans[parent][0]] != "job.exists":
            continue
        job_obj = jobs[job % len(jobs)]
        groups.setdefault((job_obj.n, job_obj.label), []).append(leaves.get(sid, 0))
    for (n, label), counts in sorted(groups.items()):
        print(f"    exists {label:<22} leaves/call {statistics.median(counts):>8.0f}"
              f"  (n! = {factorial(n)})")


def _print_assignment_calls(tracer, jobs):
    """linear_sum_assignment calls per optimal_assignment call, by size,
    and optimal_assignment's share of solve_ft time, its callees included."""
    names, spans = tracer.names, tracer.spans
    lsa = {}
    for index, parent, job, start, end, value in spans:
        if names[index] == "transferable.linear_sum_assignment" and parent >= 0:
            lsa[parent] = lsa.get(parent, 0) + 1
    by_n = {}
    inclusive = solve_ft = 0
    for sid, (index, parent, job, start, end, value) in enumerate(spans):
        if names[index] == "job.solve_ft":
            solve_ft += end - start
        if names[index] == "transferable.optimal_assignment":
            by_n.setdefault(jobs[job % len(jobs)].n, []).append(lsa.get(sid, 0))
            inclusive += end - start
    for n, counts in sorted(by_n.items()):
        print(f"    optimal_assignment n={n:<4} lsa calls/solve {statistics.median(counts):>7.0f}"
              f"  (n^2/4 = {n * n / 4:.0f})")
    if solve_ft:
        print(f"    optimal_assignment with its callees: {100 * inclusive / solve_ft:.1f}%"
              " of solve_ft time")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digest as the seed's reference")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    bench = trace_workload if args.trace else bench_workload
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, bad, values = bench(name, args.seed, args.seconds, args.record)
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, (value, unit) in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
