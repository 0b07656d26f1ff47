"""Seeded job lists for the benchmark workloads, the public-API pipeline
each job kind runs, and the independent check applied to each output.

A job holds only generated JSON text and scalar parameters, the way the
CLI reads files and flags.  Runners look every engine up through the
``matchkit`` package at call time, so the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

import matchkit as mk
from matchkit.rng import IntegerRange, SplitMix64, Uniform01, derive_seed

EPS = mk.DEFAULT_EPS

DISTS = (("uniform01", Uniform01()), ("int:0:9", IntegerRange(0, 9)))

# (p, q) cells for the chain checks: the two pure regimes, the diagonal
# midpoint, and both off-diagonal corners.
CHECK_CELLS = ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0))

# Existence-oracle cells: q > p, where the oracle usually scans all n!
# matchings, and q < p, where it usually stops early.  At (0, 1) no seeded
# uniform n = 7 instance out of 30 had a stable matching; at (0.2, 0.6)
# 3 did.  Two full-scan cells to one early-exit cell at n = 6 keep a
# pass's median inside the full scans rather than on the gap between the
# two groups.
FULL_SCAN, NEAR_DIAGONAL, EARLY_EXIT = (0.0, 1.0), (0.2, 0.6), (1.0, 0.0)


@dataclass(frozen=True)
class Job:
    kind: str
    label: str
    n: int
    args: tuple


# --- runners: one CLI command's public-API pipeline each -------------------


def solve_ft(text):
    inst = mk.parse_instance(text)
    theta = mk.combined_rewards(inst)
    matching, value = mk.optimal_assignment(theta)
    cuts = mk.dual_cuts(theta, matching)
    return matching, value, cuts, mk.verify_ft_core(theta, matching, cuts)


def solve_nt(text):
    inst = mk.parse_instance(text)
    runs = []
    for proposer in ("men", "women"):
        result = mk.gale_shapley_detailed(inst, proposer)
        runs.append((result, mk.find_fnt_blocking_pairs(inst, result.matching)))
    return runs


def check(text, matching_text, p, q):
    inst = mk.parse_instance(text)
    matching = mk.parse_matching(matching_text)
    return mk.find_pq_blocking_chain(inst, matching, mk.PQParams(p, q))


def exists(text, p, q):
    return mk.exists_pq_stable(mk.parse_instance(text), mk.PQParams(p, q))


def sweep(seed):
    return mk.pq_plane_sweep(mk.mixed_instance_stream(3, seed), 11, 20).to_csv()


def men_opt(text):
    return mk.verify_men_optimality(mk.parse_instance(text))


def core(text, matching_text, family):
    """Cuts of a core point, or None; the CLI's ``core`` command."""
    inst = mk.parse_instance(text)
    matching = mk.parse_matching(matching_text)
    model = mk.BargainingModel(family, inst.beta if family == "ft_taxed" else None)
    if family == "fnt":
        cuts = mk.canonical_fnt_cuts(inst, matching)
        return cuts if mk.verify_core_point(model, inst, matching, cuts) else None
    return mk.search_core(model, inst, matching)


RUNNERS = {
    "solve_ft": solve_ft,
    "solve_nt": solve_nt,
    "check": check,
    "exists": exists,
    "sweep": sweep,
    "men_opt": men_opt,
    "core": core,
}


# --- checks: code other than the engine under test -------------------------


def _tables(text):
    data = json.loads(text)
    return np.array(data["theta_m"], dtype=float), np.array(data["theta_w"], dtype=float)


def _blocking_pairs(tm, tw, assignment):
    """Pairs where both sides gain more than eps, computed with numpy."""
    a = np.asarray(assignment)
    inverse = np.argsort(a)
    n = len(a)
    gain_m = tm - tm[np.arange(n), a][:, None]
    gain_w = tw - tw[inverse, np.arange(n)][None, :]
    mask = (gain_m > EPS) & (gain_w > EPS)
    mask[np.arange(n), a] = False
    return int(mask.sum())


def _is_permutation(assignment, n):
    return sorted(assignment) == list(range(n))


def check_solve_ft(job, out):
    matching, value, cuts, core_ok = out
    tm, tw = _tables(job.args[0])
    theta = tm + tw
    n = job.n
    a = list(matching.assignment)
    if not _is_permutation(a, n):
        return "matching is not a permutation"
    rows, cols = linear_sum_assignment(theta, maximize=True)
    best = float(theta[rows, cols].sum())
    tol = n * EPS * max(1.0, float(np.abs(theta).max()))
    if abs(value - best) > tol or abs(float(theta[np.arange(n), a].sum()) - best) > tol:
        return f"value {value!r} differs from the assignment optimum {best!r}"
    u, v = np.array(cuts.u), np.array(cuts.v)
    if np.any(np.abs(u + v[a] - theta[np.arange(n), a]) > EPS):
        return "cuts do not split a matched pair exactly"
    if np.any(u[:, None] + v[None, :] < theta - EPS):
        return "cuts underpay some pair"
    if not core_ok:
        return "core audit reported FAILED"
    return None


def check_solve_nt(job, out):
    tm, tw = _tables(job.args[0])
    for result, blocking in out:
        a = list(result.matching.assignment)
        if not _is_permutation(a, job.n):
            return f"{result.proposer}-proposing matching is not a permutation"
        if blocking or _blocking_pairs(tm, tw, a):
            return f"{result.proposer}-proposing matching has blocking pairs"
    return None


def check_check(job, verdict):
    if verdict is True:
        return None
    inst = mk.parse_instance(job.args[0])
    matching = mk.parse_matching(job.args[1])
    p, q = job.args[2], job.args[3]
    cycle = verdict.cycle
    gain = sum(
        mk.clip_p(mk.delta_q(inst, matching, a, matching.assignment[b], q), p)
        for a, b in zip(cycle, cycle[1:] + cycle[:1])
    )
    if not gain > EPS:
        return f"witness cycle {cycle} re-sums to {gain!r}, not above eps"
    return None


def check_exists(job, found):
    if found is None:
        return None
    inst = mk.parse_instance(job.args[0])
    if mk.find_pq_blocking_chain(inst, found, mk.PQParams(job.args[1], job.args[2])) is not True:
        return "returned matching is not (p, q)-stable"
    return None


def check_sweep(job, csv):
    lines = csv.strip().split("\n")
    if lines[0] != "p,q,trials,exists" or len(lines) != 1 + 11 * 11:
        return "sweep CSV has the wrong shape"
    for line in lines[1:]:
        p, q, trials, count = line.split(",")
        # Odd trials above the diagonal are the no-stable-matching family.
        limit = 10 if float(q) - float(p) > 1e-6 else 20
        if int(trials) != 20 or not 0 <= int(count) <= limit:
            return f"sweep cell {line} is out of range"
    return None


def check_men_opt(job, report):
    if report.applicable and (report.holds is not True or report.stable_count < 1):
        return f"men-proposing optimality fails: {report.detail}"
    return None


def check_core(job, cuts):
    family = job.args[2]
    if family == "fnt":
        tm, tw = _tables(job.args[0])
        a = mk.parse_matching(job.args[1]).assignment
        # Canonical cuts leave a core point exactly when no pair blocks.
        expected = _blocking_pairs(tm, tw, a) == 0
        if (cuts is not None) != expected:
            return "fnt verdict disagrees with the blocking-pair count"
        return None
    if cuts is None:
        return None
    inst = mk.parse_instance(job.args[0])
    matching = mk.parse_matching(job.args[1])
    model = mk.BargainingModel(family, inst.beta if family == "ft_taxed" else None)
    if not mk.verify_core_point(model, inst, matching, cuts):
        return "returned cuts are not a core point"
    return None


CHECKS = {
    "solve_ft": check_solve_ft,
    "solve_nt": check_solve_nt,
    "check": check_check,
    "exists": check_exists,
    "sweep": check_sweep,
    "men_opt": check_men_opt,
    "core": check_core,
}


# --- canonical outputs for the digest --------------------------------------
# Verdicts, matchings and the sweep CSV only: chain witnesses and cut
# vectors may legitimately change when the cycle kernel is replaced.

CANON = {
    "solve_ft": lambda out: f"{out[0].assignment} core_ok={out[3]}",
    "solve_nt": lambda out: " ".join(
        f"{r.proposer}:{r.matching.assignment}:{r.proposals}:{len(b)}" for r, b in out
    ),
    "check": lambda verdict: "stable" if verdict is True else "unstable",
    "exists": lambda found: "none" if found is None else str(found.assignment),
    "sweep": lambda csv: csv,
    "men_opt": lambda r: f"{r.applicable}:{r.holds}:{r.stable_count}",
    "core": lambda cuts: "core" if cuts is not None else "no-core",
}


def canon_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- seeded job lists ------------------------------------------------------


def _instance_text(n, seed, dist, beta=False):
    inst = mk.random_instance(n, seed, dist)
    if beta:
        rng = SplitMix64(derive_seed(seed, 1))
        # Retention factors in (0.5, 1].
        table = tuple(tuple(1.0 - 0.5 * rng.uniform01() for _ in range(n)) for _ in range(n))
        inst = mk.Instance(n, inst.theta_m, inst.theta_w, table)
    return inst, mk.serialize_instance(inst)


def _interleave(jobs, seed):
    """Seeded shuffle, so kinds and sizes alternate within a pass."""
    rng = SplitMix64(derive_seed(seed, 2))
    jobs = list(jobs)
    for i in range(len(jobs) - 1, 0, -1):
        j = rng.randint(0, i)
        jobs[i], jobs[j] = jobs[j], jobs[i]
    return jobs


def ft_solve_jobs(seed):
    jobs = []
    # The tie-free class has most of the n = 50 jobs, so the median and
    # tail of a pass fall inside one class rather than between two.
    sizes = {
        "uniform01": ((50, 24), (100, 2), (150, 1)),
        "int:0:9": ((50, 8), (100, 2), (150, 1)),
    }
    for d, (name, dist) in enumerate(DISTS):
        for n, count in sizes[name]:
            for k in range(count):
                _, text = _instance_text(n, derive_seed(seed, 10, d, n, k), dist)
                jobs.append(Job("solve_ft", f"{name} n={n}", n, (text,)))
    for k in range(4):
        inst = mk.random_instance(40, derive_seed(seed, 11, k))
        big = tuple(tuple(x * 1e8 for x in row) for row in inst.theta_m)
        big_w = tuple(tuple(x * 1e8 for x in row) for row in inst.theta_w)
        text = mk.serialize_instance(mk.Instance(40, big, big_w))
        jobs.append(Job("solve_ft", "uniform01*1e8 n=40", 40, (text,)))
    return _interleave(jobs, seed)


def _near_indifferent(n, seed):
    """All-zero tables plus one entry in (2*eps/n, eps] off the diagonal.

    The entry makes a 2-cycle beat the detector's shifted threshold while
    every cycle still gains at most eps, so the detector falls back to
    exhaustive enumeration.
    """
    rng = SplitMix64(seed)
    i = rng.randint(0, n - 1)
    j = (i + rng.randint(1, n - 1)) % n
    low = 2.0 * EPS / n
    value = low + (EPS - low) * (1.0 - rng.uniform01())
    tm = [[0.0] * n for _ in range(n)]
    tm[i][j] = value
    zero = [[0.0] * n for _ in range(n)]
    return mk.serialize_instance(mk.Instance(n, tm, zero))


def pq_audit_jobs(seed):
    jobs = []
    for n, count in ((100, 5), (150, 1)):
        for k in range(count):
            inst, text = _instance_text(n, derive_seed(seed, 20, n, k), Uniform01())
            matching = mk.serialize_matching(mk.gale_shapley(inst))
            jobs.append(Job("solve_nt", f"uniform01 n={n}", n, (text,)))
            for p, q in CHECK_CELLS:
                jobs.append(Job("check", f"da n={n} p={p} q={q}", n, (text, matching, p, q)))
    for n, count in ((9, 8), (10, 1)):
        for k in range(count):
            text = _near_indifferent(n, derive_seed(seed, 21, n, k))
            identity = mk.serialize_matching(mk.Matching(tuple(range(n))))
            jobs.append(Job("check", f"near-indifferent n={n}", n, (text, identity, 1.0, 1.0)))
    return _interleave(jobs, seed)


def exhaustive_jobs(seed):
    jobs = []
    sizes = (
        (6, 12, (FULL_SCAN, NEAR_DIAGONAL, EARLY_EXIT)),
        (7, 3, (FULL_SCAN, EARLY_EXIT)),
        (8, 1, (FULL_SCAN,)),
    )
    for n, count, cells in sizes:
        for k in range(count):
            _, text = _instance_text(n, derive_seed(seed, 30, n, k), Uniform01())
            for p, q in cells:
                jobs.append(Job("exists", f"n={n} p={p} q={q}", n, (text, p, q)))
    for k in range(2):
        jobs.append(Job("sweep", "n=3 grid=11 trials=20", 3, (derive_seed(seed, 31, k) >> 33,)))
    for n in (7, 8):
        for k in range(3):
            _, text = _instance_text(n, derive_seed(seed, 32, n, k), Uniform01())
            jobs.append(Job("men_opt", f"uniform01 n={n}", n, (text,)))
    return _interleave(jobs, seed)


def core_search_jobs(seed):
    jobs = []
    for d, (name, dist) in enumerate(DISTS):
        # n = 2 has two matchings, and each instance runs on both: its
        # deferred-acceptance and identity matchings are among them.  The
        # one that does not maximize pooled reward often has no core
        # point, so its searches walk the whole disjunctive tree.
        for k in range(40):
            _, text = _instance_text(2, derive_seed(seed, 40, 2, d, k), dist, beta=True)
            for assignment in ((0, 1), (1, 0)):
                mtext = mk.serialize_matching(mk.Matching(assignment))
                for family in mk.MODEL_KINDS:
                    jobs.append(Job("core", f"{name} n=2 {family}", 2, (text, mtext, family)))
        # n = 3 runs only the families whose search is one leaf (ft) or no
        # search at all (fnt); see NOTES.md for why the others stay at n = 2.
        for k in range(12):
            inst, text = _instance_text(3, derive_seed(seed, 40, 3, d, k), dist, beta=True)
            for mname, matching in (("da", mk.gale_shapley(inst)),
                                    ("identity", mk.Matching((0, 1, 2)))):
                mtext = mk.serialize_matching(matching)
                for family in ("fnt", "ft"):
                    jobs.append(Job("core", f"{name} n=3 {mname} {family}", 3,
                                    (text, mtext, family)))
    return _interleave(jobs, seed)


WORKLOADS = {
    "ft-solve": ft_solve_jobs,
    "pq-audit": pq_audit_jobs,
    "exhaustive": exhaustive_jobs,
    "core-search": core_search_jobs,
}


def warmup_jobs(jobs):
    """The smallest job of each kind, first in pass order on ties."""
    chosen = {}
    for job in jobs:
        if job.kind not in chosen or job.n < chosen[job.kind].n:
            chosen[job.kind] = job
    return list(chosen.values())
