import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from matchkit import Instance, SplitMix64, Uniform01, parse_instance, serialize_instance
from matchkit import cli
from matchkit.cli import main

from conftest import BOXED_THETA_M, BOXED_THETA_W


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def boxed_file(tmp_path, boxed):
    path = tmp_path / "boxed.json"
    path.write_text(serialize_instance(boxed))
    return str(path)


def write_matching(tmp_path, name, assignment):
    path = tmp_path / name
    path.write_text(json.dumps({"assignment": list(assignment)}))
    return str(path)


def write_near_limit(tmp_path):
    """Rewards of 1.7e308 on both diagonals, and the identity matching."""
    big = ((1.7e308, 0.0), (0.0, 1.7e308))
    path = tmp_path / "near_limit.json"
    path.write_text(serialize_instance(Instance(2, big, big)))
    return str(path), write_matching(tmp_path, "ident.json", (0, 1))


class TestSolve:
    def test_nt_boxed(self, runner, boxed_file):
        result = runner.invoke(main, ["solve", "nt", "--instance", boxed_file])
        assert result.exit_code == 0
        assert "1→1', 2→2'" in result.output
        assert "none (stable)" in result.output

    def test_nt_women_proposing(self, runner, boxed_file):
        result = runner.invoke(
            main, ["solve", "nt", "--instance", boxed_file, "--proposer", "women"]
        )
        assert result.exit_code == 0
        assert "proposer: women" in result.output

    def test_ft_boxed(self, runner, boxed_file):
        result = runner.invoke(main, ["solve", "ft", "--instance", boxed_file])
        assert result.exit_code == 0
        assert "1→2', 2→1'" in result.output
        assert "total value: 5" in result.output
        assert "core audit: ok" in result.output

    def test_ft_single_couple(self, runner, tmp_path):
        inst = Instance(1, ((4.25,),), ((1.75,),))
        path = tmp_path / "one.json"
        path.write_text(serialize_instance(inst))
        result = runner.invoke(main, ["solve", "ft", "--instance", str(path)])
        assert result.exit_code == 0
        assert "total value: 6" in result.output

    def test_ft_overflowing_total_prints_inf(self, runner, tmp_path):
        inst = Instance(2, ((1e308, 0.0), (0.0, 1e308)), ((0.0, 0.0), (0.0, 0.0)))
        path = tmp_path / "big.json"
        path.write_text(serialize_instance(inst))
        result = runner.invoke(main, ["solve", "ft", "--instance", str(path)])
        assert result.exit_code == 0
        assert "total value: inf" in result.output
        assert "core audit: ok" in result.output

    def test_ft_overflowing_pooled_table_exit_2(self, runner, tmp_path):
        # each side's table is finite, their sum is not
        big = ((1e308, 1e308), (1e308, 1e308))
        path = tmp_path / "pooled.json"
        path.write_text(serialize_instance(Instance(2, big, big)))
        result = runner.invoke(main, ["solve", "ft", "--instance", str(path)])
        assert result.exit_code == 2
        assert result.stderr == "error: theta[0][0] is not finite\n"

    def test_ft_chain_hidden_by_rounding_exit_2(self, runner, tmp_path):
        # Both totals round to 8.9e307, so the optimal solve keeps the
        # identity, which the chain (0, 1) beats by 1.
        inst = Instance(2, ((8.9e307, 8.9e307), (0.0, -1.0)), ((0.0, 0.0), (0.0, 0.0)))
        path = tmp_path / "hidden.json"
        path.write_text(serialize_instance(inst))
        result = runner.invoke(main, ["solve", "ft", "--instance", str(path)])
        assert result.exit_code == 2
        assert result.stderr == "error: matching admits blocking chain (0, 1) with gain 1.0\n"
        assert "core audit" not in result.output

    def test_ft_fully_tied_table_certified(self, runner, tmp_path):
        # theta_m[i][j] = a[i] + b[j]: every matching is optimal, and the
        # relaxation does not settle, yet its cuts bound every chain.
        rng = SplitMix64(5)
        a = [rng.uniform01() for _ in range(5)]
        b = [rng.uniform01() for _ in range(5)]
        inst = Instance(5, tuple(tuple(x + y for y in b) for x in a), ((0.0,) * 5,) * 5)
        path = tmp_path / "tied.json"
        path.write_text(serialize_instance(inst))
        matching = write_matching(tmp_path, "ident.json", range(5))
        check = runner.invoke(
            main, ["check", "--instance", str(path), "--matching", matching, "--p", "1", "--q", "1"]
        )
        assert check.exit_code == 0 and "stable: yes" in check.output
        result = runner.invoke(main, ["solve", "ft", "--instance", str(path)])
        assert result.exit_code == 0
        assert "matching: 1→1', 2→2', 3→3', 4→4', 5→5'" in result.output
        assert "core audit: ok" in result.output

    def test_ft_scale_beyond_float_range_finds_the_optimum(self, runner, tmp_path):
        # n * max|theta| overflows, which must not make every pair tight.
        big = ((0.0, 5e307, 0.0, 0.0),) + ((0.0,) * 4,) * 3
        path = tmp_path / "wide.json"
        path.write_text(serialize_instance(Instance(4, big, ((0.0,) * 4,) * 4)))
        result = runner.invoke(main, ["solve", "ft", "--instance", str(path)])
        assert result.exit_code == 0, result.output
        assert "matching: 1→2', 2→1', 3→3', 4→4'" in result.output
        assert "total value: 5e+307" in result.output
        assert "core audit: ok" in result.output

    def test_nt_reports_blocking_pairs(self, runner, boxed_file, monkeypatch):
        monkeypatch.setattr(cli, "find_fnt_blocking_pairs", lambda *args, **kwargs: [(0, 1), (1, 0)])
        result = runner.invoke(main, ["solve", "nt", "--instance", boxed_file])
        assert result.exit_code == 0
        assert result.output.endswith("blocking pairs: (1, 2'), (2, 1')\n")

    def test_out_writes_matching(self, runner, boxed_file, tmp_path):
        out = tmp_path / "m.json"
        result = runner.invoke(
            main, ["solve", "ft", "--instance", boxed_file, "--out", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text()) == {"assignment": [1, 0]}

    def test_parse_error_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = runner.invoke(main, ["solve", "nt", "--instance", str(bad)])
        assert result.exit_code == 2

    def test_undecodable_instance_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        result = runner.invoke(main, ["solve", "nt", "--instance", str(bad)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert f"cannot read {bad}:" in result.output

    def test_deeply_nested_instance_exit_2(self, runner, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        result = runner.invoke(main, ["solve", "nt", "--instance", str(deep)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "not valid JSON: nested too deeply" in result.output

    def test_deterministic_output(self, runner, boxed_file):
        first = runner.invoke(main, ["solve", "ft", "--instance", boxed_file])
        second = runner.invoke(main, ["solve", "ft", "--instance", boxed_file])
        assert first.output == second.output


# Full stdout of ``solve ft`` on two seeded n = 8 instances.  The integer
# one has four tied optima, so it pins the lexicographic tie-break; the
# uniform one pins cut values down to their repr.
GOLDEN_FT = {
    "int:0:9": (
        "matching: 1→3', 2→2', 3→5', 4→4', 5→1', 6→8', 7→6', 8→7'\n"
        "total value: 110\n"
        "cuts u: [6, 8, 7, 0, 0, 5, 1, 3]\n"
        "cuts v: [8, 4, 9, 13, 10, 11, 15, 10]\n"
        "core audit: ok\n"
    ),
    "uniform01": (
        "matching: 1→1', 2→2', 3→6', 4→5', 5→7', 6→8', 7→4', 8→3'\n"
        "total value: 11.578203810639847\n"
        "cuts u: [0.1047048779627876, 0.2750781046029782, 0.06201365512260448, 0, "
        "0.20858459540210927, 0.2872824643794025, 0.11013354579615031, 0.24897213157272402]\n"
        "cuts v: [1.2789699294089258, 1.3252577718723082, 0.688601702763304, 1.5462461020094989, "
        "1.250960354376704, 1.534281252565853, 1.3840946612432588, 1.2730226615612383]\n"
        "core audit: ok\n"
    ),
}


class TestSolveFtGolden:
    @pytest.mark.parametrize("dist", sorted(GOLDEN_FT))
    def test_stdout_byte_identical(self, runner, tmp_path, dist):
        path = str(tmp_path / "inst.json")
        gen = runner.invoke(main, ["gen", "--n", "8", "--seed", "13", "--dist", dist, "--out", path])
        assert gen.exit_code == 0
        result = runner.invoke(main, ["solve", "ft", "--instance", path])
        assert result.exit_code == 0
        assert result.output == GOLDEN_FT[dist]


class TestCheck:
    def test_stable_exit_0(self, runner, boxed_file, tmp_path):
        matching = write_matching(tmp_path, "ident.json", (0, 1))
        result = runner.invoke(
            main,
            ["check", "--instance", boxed_file, "--matching", matching, "--p", "0", "--q", "0"],
        )
        assert result.exit_code == 0
        assert "stable: yes" in result.output

    def test_unstable_exit_1_with_chain(self, runner, boxed_file, tmp_path):
        matching = write_matching(tmp_path, "ident.json", (0, 1))
        result = runner.invoke(
            main,
            ["check", "--instance", boxed_file, "--matching", matching, "--p", "1", "--q", "1"],
        )
        assert result.exit_code == 1
        assert "stable: no" in result.output
        assert "couples (1, 2)" in result.output

    def test_out_of_range_p_exit_2(self, runner, boxed_file, tmp_path):
        matching = write_matching(tmp_path, "ident.json", (0, 1))
        result = runner.invoke(
            main,
            ["check", "--instance", boxed_file, "--matching", matching, "--p", "1.5", "--q", "0"],
        )
        assert result.exit_code == 2

    def test_undecodable_matching_exit_2(self, runner, boxed_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        result = runner.invoke(
            main,
            ["check", "--instance", boxed_file, "--matching", str(bad), "--p", "0", "--q", "0"],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"cannot read {bad}:" in result.output

    def test_wrong_size_matching_exit_2(self, runner, boxed_file, tmp_path):
        matching = write_matching(tmp_path, "bad.json", (0, 2, 1))
        result = runner.invoke(
            main,
            ["check", "--instance", boxed_file, "--matching", matching, "--p", "0", "--q", "0"],
        )
        assert result.exit_code == 2


class TestGen:
    def test_writes_valid_instance(self, runner, tmp_path):
        out = tmp_path / "inst.json"
        result = runner.invoke(main, ["gen", "--n", "4", "--seed", "9", "--out", str(out)])
        assert result.exit_code == 0
        inst = parse_instance(out.read_text())
        assert inst.n == 4

    def test_deterministic_bytes(self, runner, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        runner.invoke(main, ["gen", "--n", "3", "--seed", "5", "--out", str(out1)])
        runner.invoke(main, ["gen", "--n", "3", "--seed", "5", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_integer_range_dist(self, runner, tmp_path):
        out = tmp_path / "int.json"
        result = runner.invoke(
            main, ["gen", "--n", "3", "--seed", "2", "--dist", "int:0:9", "--out", str(out)]
        )
        assert result.exit_code == 0
        inst = parse_instance(out.read_text())
        assert all(0 <= x <= 9 for row in inst.theta_m + inst.theta_w for x in row)

    def test_bad_dist_exit_2(self, runner, tmp_path):
        for dist in ("pareto", "int:a:b"):
            args = ["gen", "--n", "3", "--seed", "2", "--dist", dist, "--out", str(tmp_path / "x")]
            result = runner.invoke(main, args)
            assert result.exit_code == 2
            assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
            assert result.stderr == (
                f"error: unknown distribution {dist!r}; expected uniform01 or int:LO:HI\n"
            )

    def test_empty_int_range_exit_2(self, runner, tmp_path):
        args = ["gen", "--n", "3", "--seed", "2", "--dist", "int:5:1", "--out", str(tmp_path / "x")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: empty integer range [5, 1]\n"

    @pytest.mark.parametrize(
        "bounds",
        [(-(10**400), 10**400), (0, 10**400), (2**53 + 1, 2**53 + 1)],
        ids=["-10**400:10**400", "0:10**400", "2**53+1:2**53+1"],
    )
    def test_int_range_beyond_2_53_exit_2(self, runner, tmp_path, bounds):
        dist = "int:{}:{}".format(*bounds)
        out = tmp_path / "x.json"
        args = ["gen", "--n", "2", "--seed", "1", "--dist", dist, "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: integer range bounds must lie in [-2**53, 2**53]\n"
        assert not out.exists()

    def test_rejects_zero_size(self, runner, tmp_path):
        result = runner.invoke(
            main, ["gen", "--n", "0", "--seed", "2", "--out", str(tmp_path / "x")]
        )
        assert result.exit_code == 2

    def test_size_limit_exit_3_before_drawing(self, runner, tmp_path, monkeypatch):
        draws = []
        monkeypatch.setattr(Uniform01, "sample", lambda self, rng: draws.append(1) or 0.5)
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["gen", "--n", "2001", "--seed", "1", "--out", str(out)])
        assert result.exit_code == 3
        assert result.stderr == "error: instance generation limited to n <= 2000, got 2001\n"
        assert result.stdout == ""
        assert draws == [] and not out.exists()


class TestCounterexampleFlow:
    def test_both_matchings_unstable(self, runner, tmp_path):
        inst_path = tmp_path / "ce.json"
        result = runner.invoke(
            main, ["counterexample", "--p", "0.2", "--q", "0.8", "--out", str(inst_path)]
        )
        assert result.exit_code == 0
        for name, assignment in (("a.json", (0, 1)), ("b.json", (1, 0))):
            matching = write_matching(tmp_path, name, assignment)
            check = runner.invoke(
                main,
                [
                    "check",
                    "--instance", str(inst_path),
                    "--matching", matching,
                    "--p", "0.2",
                    "--q", "0.8",
                ],
            )
            assert check.exit_code == 1

    def test_invalid_levels_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["counterexample", "--p", "0.5", "--q", "0.5", "--out", str(tmp_path / "x")]
        )
        assert result.exit_code == 2

    def test_nan_level_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["counterexample", "--p", "nan", "--q", "0.5", "--out", str(tmp_path / "x")]
        )
        assert result.exit_code == 2
        assert result.stderr == "error: p must lie in [0, 1], got nan\n"


class TestSweep:
    def test_row_count_and_determinism(self, runner, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        args = ["sweep", "--n", "2", "--grid", "11", "--trials", "2", "--seed", "3"]
        first = runner.invoke(main, args + ["--out", str(out1)])
        second = runner.invoke(main, args + ["--out", str(out2)])
        assert first.exit_code == 0 and second.exit_code == 0
        lines = out1.read_text().strip().split("\n")
        assert len(lines) == 122  # header + 11*11 cells
        assert out1.read_bytes() == out2.read_bytes()

    def test_size_limit_exit_3(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", "--n", "9", "--grid", "3", "--trials", "1", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 3
        assert result.stderr == "error: existence oracle limited to n <= 8, got 9\n"

    def test_oracle_limit_answers(self, runner, tmp_path):
        out = tmp_path / "s8.csv"
        result = runner.invoke(
            main, ["sweep", "--n", "8", "--grid", "3", "--trials", "2", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 10  # header + 3*3 cells


class TestCore:
    def test_fnt_boxed_valid(self, runner, boxed_file, tmp_path):
        matching = write_matching(tmp_path, "ident.json", (0, 1))
        result = runner.invoke(
            main,
            ["core", "--model", "fnt", "--instance", boxed_file, "--matching", matching],
        )
        assert result.exit_code == 0
        assert "core-valid: yes" in result.output

    def test_ft_identity_invalid(self, runner, boxed_file, tmp_path):
        matching = write_matching(tmp_path, "ident.json", (0, 1))
        result = runner.invoke(
            main,
            ["core", "--model", "ft", "--instance", boxed_file, "--matching", matching],
        )
        assert result.exit_code == 1
        assert "core-valid: no" in result.output

    def test_search_size_limit_exit_3(self, runner, tmp_path):
        inst = Instance(4, tuple((float(i),) * 4 for i in range(4)), tuple((2.0,) * 4 for _ in range(4)))
        inst_path = tmp_path / "big.json"
        inst_path.write_text(serialize_instance(inst))
        matching = write_matching(tmp_path, "m.json", (0, 1, 2, 3))
        result = runner.invoke(
            main,
            ["core", "--model", "ft", "--instance", str(inst_path), "--matching", matching],
        )
        assert result.exit_code == 3

    def test_taxed_needs_beta_exit_2(self, runner, boxed_file, tmp_path):
        matching = write_matching(tmp_path, "ident.json", (0, 1))
        result = runner.invoke(
            main,
            ["core", "--model", "ft_taxed", "--instance", boxed_file, "--matching", matching],
        )
        assert result.exit_code == 2

    def test_taxed_with_beta_in_instance(self, runner, tmp_path, boxed):
        inst = Instance(2, BOXED_THETA_M, BOXED_THETA_W, beta=((0.5, 0.5), (0.5, 0.5)))
        inst_path = tmp_path / "taxed.json"
        inst_path.write_text(serialize_instance(inst))
        matching = write_matching(tmp_path, "swap.json", (1, 0))
        result = runner.invoke(
            main,
            ["core", "--model", "ft_taxed", "--instance", str(inst_path), "--matching", matching],
        )
        assert result.exit_code in (0, 1)  # decided, not an error

    def test_taxed_beta_with_overflowing_reciprocal_exit_2(self, runner, tmp_path):
        inst = Instance(2, BOXED_THETA_M, BOXED_THETA_W, beta=((0.5, 5e-324), (0.5, 0.5)))
        inst_path = tmp_path / "taxed.json"
        inst_path.write_text(serialize_instance(inst))
        matching = write_matching(tmp_path, "swap.json", (1, 0))
        result = runner.invoke(
            main,
            ["core", "--model", "ft_taxed", "--instance", str(inst_path), "--matching", matching],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert "1/beta overflows" in result.stderr


    def test_ft_huge_reward_exit_0(self, runner, tmp_path):
        inst = Instance(2, ((1e300, 0.0), (0.0, 1.0)), ((0.0, 0.0), (0.0, 0.0)))
        inst_path = tmp_path / "huge.json"
        inst_path.write_text(serialize_instance(inst))
        matching = write_matching(tmp_path, "ident.json", (0, 1))
        result = runner.invoke(
            main,
            ["core", "--model", "ft", "--instance", str(inst_path), "--matching", matching],
        )
        assert result.exit_code == 0
        assert result.exception is None  # no traceback
        assert "core-valid: yes" in result.output

    @pytest.mark.parametrize("model", ["ft", "ft_nonneg"])
    def test_cut_beyond_float_range_exit_2(self, runner, tmp_path, model):
        # The exact search's core point has a cut of 3.4e308.
        inst_path, matching = write_near_limit(tmp_path)
        result = runner.invoke(
            main, ["core", "--model", model, "--instance", inst_path, "--matching", matching]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "model, line",
        [
            ("ft", "core-valid: yes (u=[3, 0], v=[0, 2])"),
            ("ft_nonneg", "core-valid: yes (u=[3, 0], v=[0, 2])"),
            ("ft_m2w", "core-valid: yes (u=[0, -2], v=[2, 5])"),
            ("ft_taxed", "core-valid: yes (u=[0, -3], v=[1.5, 5])"),
        ],
    )
    def test_men_optimal_cuts_on_boxed_swap(self, runner, tmp_path, model, line):
        # The cuts printed are the men-optimal ones: under ft_m2w,
        # u = [0, -3], v = [3, 5] supports the swap too, but u = [0, -2] is
        # the greatest supporting u.
        inst = Instance(2, BOXED_THETA_M, BOXED_THETA_W, beta=((0.5, 0.5), (0.5, 0.5)))
        inst_path = tmp_path / "boxed_beta.json"
        inst_path.write_text(serialize_instance(inst))
        matching = write_matching(tmp_path, "swap.json", (1, 0))
        result = runner.invoke(
            main, ["core", "--model", model, "--instance", str(inst_path), "--matching", matching]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[2] == line

    def test_cuts_beyond_2_53_print_as_repr(self, runner, tmp_path):
        inst_path, matching = write_near_limit(tmp_path)
        result = runner.invoke(
            main, ["core", "--model", "ft_m2w", "--instance", inst_path, "--matching", matching]
        )
        assert result.exit_code == 0
        assert "core-valid: yes (u=[1.7e+308, 1.7e+308], v=[1.7e+308, 1.7e+308])" in result.output


# Every command with --out, as its arguments before the --out flag.
OUT_COMMANDS = {
    "solve nt": ["solve", "nt", "--instance", "{boxed}"],
    "solve ft": ["solve", "ft", "--instance", "{boxed}"],
    "sweep": ["sweep", "--n", "2", "--grid", "2", "--trials", "1"],
    "gen": ["gen", "--n", "2", "--seed", "1"],
    "counterexample": ["counterexample", "--p", "0.2", "--q", "0.8"],
}


class TestHygiene:
    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_unwritable_out_exit_2(self, runner, boxed_file, tmp_path, command):
        out = str(tmp_path / "missing" / "out.json")
        args = [a.format(boxed=boxed_file) for a in OUT_COMMANDS[command]] + ["--out", out]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert result.stdout == ""

    def test_inputs_never_modified(self, runner, boxed_file, tmp_path):
        before = Path(boxed_file).read_bytes()
        matching = write_matching(tmp_path, "ident.json", (0, 1))
        m_before = Path(matching).read_bytes()
        runner.invoke(main, ["solve", "nt", "--instance", boxed_file])
        runner.invoke(
            main,
            ["check", "--instance", boxed_file, "--matching", matching, "--p", "0", "--q", "0"],
        )
        assert Path(boxed_file).read_bytes() == before
        assert Path(matching).read_bytes() == m_before

    def test_eps_env_override(self, runner, boxed_file, tmp_path, monkeypatch):
        monkeypatch.setenv("MATCHKIT_EPS", "0.5")
        matching = write_matching(tmp_path, "ident.json", (0, 1))
        # with eps = 0.5 the unit-gain chain at (1,1) still exceeds it
        result = runner.invoke(
            main,
            ["check", "--instance", boxed_file, "--matching", matching, "--p", "1", "--q", "1"],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("seed", [13, 14])
    def test_eps_zero_on_integer_tables_changes_nothing(self, runner, tmp_path, seed):
        # integer rewards stay off the knife edge, so eps = 0 takes the exact paths
        inst = str(tmp_path / "int.json")
        gen = ["gen", "--n", "8", "--seed", str(seed), "--dist", "int:0:9", "--out", inst]
        assert runner.invoke(main, gen).exit_code == 0
        commands = []
        for kind in ("nt", "ft"):
            matching = str(tmp_path / f"{kind}.json")
            commands.append(["solve", kind, "--instance", inst, "--out", matching])
            for p, q in ((0, 0), (0.5, 0.5), (1, 1), (0, 1), (1, 0)):  # the bench's cells
                check = ["check", "--instance", inst, "--matching", matching]
                commands.append(check + ["--p", str(p), "--q", str(q)])

        def outcomes(env):
            return [
                (result.exit_code, result.stdout)
                for result in (runner.invoke(main, args, env=env) for args in commands)
            ]

        default = outcomes({"MATCHKIT_EPS": None})
        assert {code for code, _ in default} == {0, 1}
        assert outcomes({"MATCHKIT_EPS": "0"}) == default

    def test_bad_eps_env_exit_2(self, runner, boxed_file, monkeypatch):
        monkeypatch.setenv("MATCHKIT_EPS", "banana")
        result = runner.invoke(main, ["solve", "nt", "--instance", boxed_file])
        assert result.exit_code == 2

    def test_huge_json_integer_exit_2(self, runner, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"n": 1, "theta_m": [[1' + "0" * 400 + ']], "theta_w": [[0]]}'
        )
        result = runner.invoke(main, ["solve", "ft", "--instance", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert "theta_m[0][0] is not finite" in result.output

    @pytest.mark.parametrize("kind", ["instance", "matching"])
    def test_integer_literal_past_digit_limit_exit_2(self, runner, boxed_file, tmp_path, kind):
        # Python refuses to convert integer literals of more than 4,300 digits.
        digits = "1" * 5000
        if kind == "instance":
            path = tmp_path / "long.json"
            path.write_text('{"n": 1, "theta_m": [[' + digits + ']], "theta_w": [[0]]}')
            args = ["solve", "nt", "--instance", str(path)]
        else:
            path = tmp_path / "long_matching.json"
            path.write_text('{"assignment": [' + digits + ", 0]}")
            args = ["check", "--instance", boxed_file, "--matching", str(path), "--p", "0", "--q", "0"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert result.stderr == "error: not valid JSON: integer literal has too many digits\n"

    @pytest.mark.parametrize(
        "extra",
        [["check", "--p", "0", "--q", "0"], ["core", "--model", "fnt"], ["core", "--model", "ft"]],
    )
    def test_wrong_size_matching_check_and_core_exit_2(self, runner, boxed_file, tmp_path, extra):
        matching = write_matching(tmp_path, "three.json", (0, 2, 1))
        args = extra + ["--instance", boxed_file, "--matching", matching]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert result.stdout == ""
        assert result.stderr == "error: matching size 3 does not fit instance size 2\n"

    def test_commands_without_an_assignment_solve_leave_scipy_unimported(self, tmp_path):
        """Only solve ft needs scipy on every run; gen, solve nt, check and
        core run in a fresh interpreter without importing it."""
        inst, nt = str(tmp_path / "inst.json"), str(tmp_path / "nt.json")
        commands = [
            ["gen", "--n", "4", "--seed", "7", "--out", inst],
            ["solve", "nt", "--instance", inst, "--out", nt],
            ["check", "--instance", inst, "--matching", nt, "--p", "0.5", "--q", "0.5"],
            ["core", "--model", "fnt", "--instance", inst, "--matching", nt],
        ]
        script = (
            "import sys\n"
            "from matchkit.cli import main\n"
            "imported = []\n"
            f"for args in {commands!r}:\n"
            "    try:\n"
            "        main(args)\n"
            "    except SystemExit as stop:\n"
            "        assert stop.code in (0, None), (args, stop.code)\n"
            "    imported.append('scipy' in sys.modules)\n"
            "print('scipy imported:', imported)\n"
        )
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "scipy imported: [False, False, False, False]"

    @pytest.mark.parametrize("command", ["check", "core"])
    def test_bad_eps_env_check_and_core_exit_2(self, runner, boxed_file, tmp_path, monkeypatch, command):
        monkeypatch.setenv("MATCHKIT_EPS", "abc")
        matching = write_matching(tmp_path, "ident.json", (0, 1))
        args = ["--instance", boxed_file, "--matching", matching]
        extra = ["--p", "0", "--q", "0"] if command == "check" else ["--model", "ft"]
        result = runner.invoke(main, [command] + args + extra)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert result.stderr.startswith("error: MATCHKIT_EPS")
        assert "Traceback" not in result.output


# Finite values at the edges of what floats carry, values that JSON
# carries but floats do not, and junk in place of numbers, rows and fields.
FINITE_EDGES = (
    1e308, -1e308, 1.7e308, -1.7e308, 8.9e307, 2**53 + 1, -0.0, 0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-10, 0.5, 1, -1,
)
finite = st.one_of(
    st.sampled_from(FINITE_EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**20), 10**20),
)
junk = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.text(max_size=3),
        st.sampled_from([10**400, -(10**400), 2**1024, float("nan"), float("inf")]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=6,
)


@st.composite
def adversarial_case(draw):
    """One of the four deciding commands on n <= 3 JSON input; about
    half the cases break one field or one entry."""
    n = draw(st.integers(1, 3))
    broken = draw(st.sampled_from(
        [None] * 5 + ["n", "theta_m", "theta_w", "beta", "assignment", "entry"]
    ))

    def field(name, valid):
        return draw(junk if name == broken else valid)

    def table(entry):
        return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)

    entry = st.one_of(finite, junk) if broken == "entry" else finite
    inst = {
        "n": field("n", st.just(n)),
        "theta_m": field("theta_m", table(entry)),
        "theta_w": field("theta_w", table(finite)),
    }
    if draw(st.booleans()):
        beta = st.one_of(st.sampled_from([0.5, 1.0, 5e-324, 0.0, 2.0]), finite)
        inst["beta"] = field("beta", table(beta))
    matching = field(
        "assignment", st.permutations(range(n)).map(lambda a: {"assignment": list(a)})
    )
    command = draw(st.sampled_from(["solve nt", "solve ft", "check", "core"]))
    if command == "check":
        extra = ["--p", draw(st.sampled_from(["0", "0.5", "1"])),
                 "--q", draw(st.sampled_from(["0", "0.5", "1"]))]
    elif command == "core":
        extra = ["--model", draw(st.sampled_from(["fnt", "ft", "ft_nonneg", "ft_m2w", "ft_taxed"]))]
    else:
        extra = []
    return command, json.dumps(inst), json.dumps(matching), extra


class TestAdversarialJson:
    @given(adversarial_case())
    @settings(max_examples=150, deadline=None)
    def test_answer_or_clean_error(self, case):
        command, inst_text, matching_text, extra = case
        runner = CliRunner()
        with runner.isolated_filesystem():
            Path("inst.json").write_text(inst_text)
            Path("match.json").write_text(matching_text)
            args = command.split() + ["--instance", "inst.json"]
            if command in ("check", "core"):
                args += ["--matching", "match.json"]
            result = runner.invoke(main, args + extra)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            repr(result.exception)
        )
        assert "Traceback" not in result.output
        assert result.exit_code in (0, 1, 2, 3)
        if result.exit_code == 1:
            assert {"stable: no", "core-valid: no"} & set(result.stdout.splitlines())
