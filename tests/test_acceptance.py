"""Acceptance suite: every checkable headline claim, at desk scale.

Each criterion prints one PASS/FAIL line (run with -s to watch).  All
corpora are seeded and deterministic; tolerances are pinned here and
never loosened at runtime.
"""

import time
from itertools import permutations

import pytest
from click.testing import CliRunner

from matchkit import (
    BargainingModel,
    CutVector,
    Instance,
    IntegerRange,
    Matching,
    PQParams,
    SplitMix64,
    Uniform01,
    chain_potentials,
    check_pq_monotonicity,
    combined_rewards,
    counterexample_instance,
    delta_r,
    derive_seed,
    dual_cuts,
    exists_pq_stable,
    find_fnt_blocking_pairs,
    find_pq_blocking_chain,
    gale_shapley,
    gale_shapley_detailed,
    is_cyclically_monotone,
    mixed_instance_stream,
    optimal_assignment,
    pq_plane_sweep,
    random_instance,
    search_core,
    serialize_instance,
    verify_core_point,
    verify_ft_core,
)
from matchkit.cli import main as cli_main
from matchkit.cycles import best_cycle_bruteforce

from conftest import corpus_instance, pq_weight_matrix, seeded_permutation
from oracles import bruteforce_max_matching

EPS = 1e-9


def report(ok: bool, label: str) -> None:
    print(("PASS" if ok else "FAIL") + f": {label}")
    assert ok, label


@pytest.fixture(scope="module")
def equivalence_corpus():
    """Criterion 3/4 corpus: per instance, the maximizer, monotone, and
    dual-cut-supported matchings, found by exhaustive enumeration."""
    records = []
    for idx in range(500):
        inst = corpus_instance(idx, 6, tag=300)
        theta = combined_rewards(inst)
        n = inst.n
        totals = {}
        for perm in permutations(range(n)):
            totals[perm] = sum(theta[i][perm[i]] for i in range(n))
        best = max(totals.values())
        maximizers = frozenset(p for p, t in totals.items() if t >= best - EPS)
        monotone = set()
        supported = set()
        verified_triples = []
        for perm in totals:
            matching = Matching(perm)
            if is_cyclically_monotone(theta, matching) is True:
                monotone.add(perm)
                cuts = dual_cuts(theta, matching)
                if verify_ft_core(theta, matching, cuts):
                    supported.add(perm)
                    verified_triples.append((matching, cuts))
        records.append(
            {
                "theta": theta,
                "maximizers": maximizers,
                "monotone": frozenset(monotone),
                "supported": frozenset(supported),
                "triples": verified_triples,
            }
        )
    return records


def test_criterion_01_boxed_example_cli(tmp_path):
    inst = Instance(2, ((1, 0), (0, 1)), ((1, 5), (0, 1)))
    path = tmp_path / "boxed.json"
    path.write_text(serialize_instance(inst))
    runner = CliRunner()
    start = time.monotonic()
    nt = runner.invoke(cli_main, ["solve", "nt", "--instance", str(path)])
    ft = runner.invoke(cli_main, ["solve", "ft", "--instance", str(path)])
    elapsed = time.monotonic() - start
    theta = combined_rewards(inst)
    alternative = theta[0][0] + theta[1][1]
    ok = (
        nt.exit_code == 0
        and "1→1', 2→2'" in nt.output
        and ft.exit_code == 0
        and "1→2', 2→1'" in ft.output
        and "total value: 5" in ft.output
        and alternative == 4.0
        and elapsed < 1.0
    )
    report(ok, "criterion 1: boxed example solves to {11',22'} (NT) and {12',21'} value 5 (FT)")


def test_criterion_02_gale_shapley_contract():
    start = time.monotonic()
    checked = 0
    for idx in range(1000):
        n = (derive_seed(301, idx) % 50) + 1
        inst = random_instance(n, derive_seed(302, idx), Uniform01())
        result = gale_shapley_detailed(inst)
        assert find_fnt_blocking_pairs(inst, result.matching) == [], (idx, n)
        assert result.proposals <= n * n, (idx, n)
        checked += 1
    elapsed = time.monotonic() - start
    report(
        checked == 1000 and elapsed < 10.0,
        f"criterion 2: 1000 runs (n<=50) stable with <=n^2 proposals in {elapsed:.1f}s",
    )


def test_criterion_03_three_way_equivalence(equivalence_corpus):
    start = time.monotonic()
    for idx, record in enumerate(equivalence_corpus):
        assert record["maximizers"] == record["monotone"] == record["supported"], idx
    elapsed = time.monotonic() - start
    report(
        len(equivalence_corpus) == 500 and elapsed < 60.0,
        "criterion 3: maximizer = cyclically-monotone = dual-cut-supported on 500 instances",
    )


def test_criterion_04_supported_implies_monotone(equivalence_corpus):
    exceptions = 0
    triples = 0
    for record in equivalence_corpus:
        theta = record["theta"]
        for matching, cuts in record["triples"]:
            triples += 1
            assert verify_ft_core(theta, matching, cuts)
            if is_cyclically_monotone(theta, matching) is not True:
                exceptions += 1
    report(
        exceptions == 0 and triples > 0,
        f"criterion 4: all {triples} core-verified triples are cyclically monotone",
    )


def test_criterion_05_potentials_match_chain_oracle():
    def oracle(theta, matching, target):
        n = len(theta)
        assignment = matching.assignment

        def hop(s, t):
            ws = assignment[s]
            return theta[s][ws] - theta[t][ws]

        best = 0.0
        others = [c for c in range(n) if c != target]
        for k in range(1, n):
            for seq in permutations(others, k):
                chain = seq + (target,)
                best = min(best, sum(hop(chain[l], chain[l + 1]) for l in range(k)))
        return best

    worst = 0.0
    for idx in range(100):
        inst = corpus_instance(idx, 5, tag=305)
        theta = combined_rewards(inst)
        matching, _ = optimal_assignment(theta)
        u0 = chain_potentials(theta, matching)
        for target in range(inst.n):
            worst = max(worst, abs(u0[target] + oracle(theta, matching, target)))
    report(
        worst <= 1e-9,
        f"criterion 5: shortest-path potentials equal chain minima (max err {worst:.2e})",
    )


def test_criterion_06_reduction_identities():
    disagreements = 0
    for idx in range(500):
        inst = corpus_instance(idx, 6, tag=306)
        theta = combined_rewards(inst)
        n = inst.n
        if n <= 3:
            candidates = [Matching(p) for p in permutations(range(n))]
        else:
            rng = SplitMix64(derive_seed(307, idx))
            candidates = [gale_shapley(inst), optimal_assignment(theta)[0]]
            candidates += [Matching(seeded_permutation(n, rng)) for _ in range(5)]
        for matching in candidates:
            fnt_free = find_fnt_blocking_pairs(inst, matching) == []
            zero_zero = find_pq_blocking_chain(inst, matching, PQParams(0.0, 0.0)) is True
            if fnt_free != zero_zero:
                disagreements += 1
            monotone = is_cyclically_monotone(theta, matching) is True
            one_one = find_pq_blocking_chain(inst, matching, PQParams(1.0, 1.0)) is True
            if monotone != one_one:
                disagreements += 1
    report(
        disagreements == 0,
        "criterion 6: (0,0)-stability = blocking-pair-freeness and (1,1)-stability = cyclic monotonicity",
    )


def test_criterion_07_averaged_minimum_identity():
    rng = SplitMix64(777)
    worst = 0.0
    for _ in range(10**4):
        a = 20.0 * rng.uniform01() - 10.0
        b = 20.0 * rng.uniform01() - 10.0
        q = rng.uniform01()
        lhs = min(q * a + b, q * b + a)
        rhs = (q + 1.0) * delta_r(a, b, (1.0 - q) / (1.0 + q))
        worst = max(worst, abs(lhs - rhs))
    report(worst <= 1e-12, f"criterion 7: min(qa+b, qb+a) identity, max err {worst:.2e}")


def test_criterion_08_stability_monotone_in_sharing_levels():
    violations = 0
    for idx in range(200):
        inst = corpus_instance(idx, 4, tag=308)
        rng = SplitMix64(derive_seed(309, idx))
        matchings = [gale_shapley(inst), Matching(seeded_permutation(inst.n, rng))]
        for matching in matchings:
            if not check_pq_monotonicity(inst, matching, 11):
                violations += 1
    report(
        violations == 0,
        "criterion 8: stability at (p,q) implies stability at p'>=p, q'<=q on 11x11 grids",
    )


def test_criterion_09_no_stable_matching_when_q_exceeds_p():
    rng = SplitMix64(909)
    failures = 0
    for _ in range(20):
        p = 0.85 * rng.uniform01()
        q = p + 0.1 + (1.0 - p - 0.1) * rng.uniform01()
        q = min(q, 1.0)
        inst = counterexample_instance(p, q)
        if exists_pq_stable(inst, PQParams(p, q)) is not None:
            failures += 1
    report(failures == 0, "criterion 9: counterexample family unstable at 20 (p,q) pairs")


def test_criterion_10_detector_matches_enumeration():
    grid = [k / 4 for k in range(5)]
    disagreements = 0
    for idx in range(30):
        n = (idx % 5) + 2
        inst = random_instance(n, derive_seed(310, idx), Uniform01())
        rng = SplitMix64(derive_seed(311, idx))
        matching = Matching(seeded_permutation(n, rng))
        for p in grid:
            for q in grid:
                verdict = find_pq_blocking_chain(inst, matching, PQParams(p, q))
                brute = best_cycle_bruteforce(pq_weight_matrix(inst, matching, p, q), EPS)
                if (verdict is True) != (brute is None):
                    disagreements += 1
    report(
        disagreements == 0,
        "criterion 10: cycle detector agrees with exhaustive enumeration on 25-point grids",
    )


def test_criterion_11_core_search_consistency():
    ft = BargainingModel("ft")
    fnt = BargainingModel("fnt")
    nonneg = BargainingModel("ft_nonneg")
    ft_mismatch = fnt_mismatch = clamp_fail = 0
    witnesses = 0
    for idx in range(40):
        n = (idx % 3) + 1
        inst = random_instance(n, derive_seed(312, idx), IntegerRange(0, 9))
        theta = combined_rewards(inst)
        maximizer, best = bruteforce_max_matching(theta)
        for perm in permutations(range(n)):
            matching = Matching(perm)
            total = sum(theta[i][perm[i]] for i in range(n))
            if (search_core(ft, inst, matching) is not None) != (total >= best - EPS):
                ft_mismatch += 1
            stable = find_fnt_blocking_pairs(inst, matching) == []
            if (search_core(fnt, inst, matching) is not None) != stable:
                fnt_mismatch += 1
        found = search_core(nonneg, inst, maximizer)
        if found is not None:
            witnesses += 1
            clamped = CutVector(
                tuple(max(x, 0.0) for x in found.u),
                tuple(max(x, 0.0) for x in found.v),
            )
            if not verify_core_point(nonneg, inst, maximizer, clamped):
                clamp_fail += 1
    report(
        ft_mismatch == 0 and fnt_mismatch == 0 and clamp_fail == 0 and witnesses > 0,
        f"criterion 11: core search matches efficiency/stability oracles; clamping holds on {witnesses} witnesses",
    )


def test_criterion_12_sweep_structure():
    stream = mixed_instance_stream(3, 20260808)
    first = pq_plane_sweep(stream, 5, 10)
    second = pq_plane_sweep(mixed_instance_stream(3, 20260808), 5, 10)
    cells = {(c.p, c.q): c for c in first.grid}
    corner_ok = (
        cells[(0.0, 0.0)].existence_count == 10 and cells[(1.0, 1.0)].existence_count == 10
    )
    adversary_ok = all(
        cell.existence_count < cell.trials for cell in first.grid if cell.q > cell.p
    )
    deterministic = first.to_csv() == second.to_csv()
    report(
        corner_ok and adversary_ok and deterministic,
        "criterion 12: sweep corners show full existence, q>p cells fail, CSV deterministic",
    )
