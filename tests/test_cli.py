import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from momentlab.random_instances import random_curve_supported


FIXTURE_COMMANDS = (["ratio", "--p", "8"], ["main-lemma", "--p", "8"], ["reverse-square", "--kappa-exp", "1"],
                    ["pigeonhole-report"])


SRC = Path(__file__).resolve().parents[1] / "src" / "momentlab"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "momentlab", *argv], capture_output=True, text=True
    )


def run_capped(argv, timeout):
    """The CLI in a subprocess under a 2 GiB address-space cap, so that a
    missing budget check fails fast instead of exhausting memory; one BLAS
    thread keeps numpy's own reservation under the cap."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "momentlab", *argv], capture_output=True, text=True,
                          timeout=timeout, preexec_fn=cap, env=env)


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    import random

    f = random_curve_supported(random.Random(0), 3, 2, 2, 4, 2)
    path = tmp_path_factory.mktemp("fixtures") / "g.json"
    path.write_text(json.dumps(f.to_json()))
    return str(path)


class TestSubcommands:
    def test_exponents_csv_reference_row(self):
        r = run_cli(
            "exponents", "--k", "2", "--p0", "4", "--c0", "2",
            "--eps", "0.01", "--p-max", "40", "--format", "csv",
        )
        assert r.returncode == 0
        rows = [line for line in r.stdout.splitlines() if line and not line.startswith("#")]
        p8 = next(line for line in rows if line.startswith("8,"))
        assert ",11/8," in p8

    def test_count_vinogradov(self):
        r = run_cli("count-vinogradov", "--s", "2", "--k", "2", "--X", "2")
        data = json.loads(r.stdout)
        assert r.returncode == 0 and data["count"] == 6
        assert data["version"] and data["config"]["s"] == 2

    def test_count_vinogradov_with_congruence(self):
        r = run_cli(
            "count-vinogradov", "--s", "3", "--k", "2", "--X", "6",
            "--mod-p", "5", "--residue", "2",
        )
        data = json.loads(r.stdout)
        assert data["count_pinned_residue"] <= data["count_distinct_mod_p"] <= data["count"]

    def test_linnik_exhaustive(self):
        r = run_cli("linnik", "--k", "2", "--p", "3", "--exhaustive")
        data = json.loads(r.stdout)
        assert r.returncode == 0
        assert data["max_count"] <= data["bound"] == 6

    def test_linnik_failure_still_emits_its_report(self, monkeypatch, capsys):
        from momentlab import cli

        monkeypatch.setattr(cli, "linnik_bound", lambda k, p: 0)
        assert cli.main(["linnik", "--k", "2", "--p", "3", "--exhaustive"]) == 4
        out, err = capsys.readouterr()
        data = json.loads(out)
        assert data["bound"] == 0 and not data["holds"]
        # the report first, then the one JSON line every exit 4 ends stderr with
        assert json.loads(err.splitlines()[-1])["error"] == "verification-failure"

    def test_linnik_with_both_flags_holds_only_if_both_verdicts_do(self, monkeypatch, capsys):
        from momentlab import cli

        argv = ["linnik", "--k", "2", "--p", "5", "--exhaustive", "--residues", "1", "2"]
        assert cli.main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["max_count"] <= data["bound"] and data["count"] <= data["bound"] and data["holds"]
        monkeypatch.setattr(cli, "linnik_max", lambda k, p: (99, [0, 0]))
        assert cli.main(argv) == 4
        data = json.loads(capsys.readouterr().out)
        assert data["count"] <= data["bound"] < data["max_count"] and not data["holds"]

    def test_threads_is_a_constant_of_the_report(self, monkeypatch, capsys):
        from momentlab import cli

        monkeypatch.setenv("MOMENTLAB_THREADS", "7")
        assert cli.main(["linnik", "--k", "2", "--p", "3", "--exhaustive"]) == 0
        assert json.loads(capsys.readouterr().out)["threads"] == 1

    def test_karatsuba_trace(self):
        r = run_cli("karatsuba", "--s", "4", "--k", "2", "--X", "8")
        data = json.loads(r.stdout)
        assert r.returncode == 0
        assert data["symbolic_exponent"] == data["closed_form_exponent"]
        assert any(not s.get("base_case") for s in data["steps"])

    def test_counting_lemma(self):
        r = run_cli(
            "counting-lemma", "--q", "3", "--k", "2", "--delta-exp", "2", "--kappa-exp", "1"
        )
        data = json.loads(r.stdout)
        assert r.returncode == 0 and data["worst_count"] <= data["bound"]

    def test_ratio_main_lemma_reverse_square(self, fixture_path):
        r = run_cli("ratio", "--input", fixture_path, "--p", "8", "--delta-exp", "2")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert 0 < data["ratio"] <= data["trivial_ceiling"] * (1 + 1e-9)

        r = run_cli("main-lemma", "--input", fixture_path, "--p", "8", "--delta-exp", "2")
        assert r.returncode == 0 and json.loads(r.stdout)["holds"]

        r = run_cli(
            "reverse-square", "--input", fixture_path, "--delta-exp", "2", "--kappa-exp", "1"
        )
        assert r.returncode == 0 and json.loads(r.stdout)["recursion_holds"]

    def test_count_vinogradov_residue_needs_mod_p(self, capsys):
        from momentlab import cli

        assert cli.main(["count-vinogradov", "--s", "2", "--k", "2", "--X", "5", "--residue", "1"]) == 2
        assert "needs --mod-p" in json.loads(capsys.readouterr().err)["reason"]

    @pytest.mark.parametrize("argv", [["--k", "0", "--p", "3"], ["--k", "-1", "--p", "3"],
                                      ["--k", "0", "--p", "3", "--residues"]],
                             ids=["k0", "k-negative", "k0-residues"])
    def test_linnik_degree_below_one_is_a_usage_error(self, capsys, argv):
        from momentlab import cli

        assert cli.main(["linnik", *argv]) == 2
        assert f"k={argv[1]}" in json.loads(capsys.readouterr().err)["reason"]

    def test_one_parser_serves_every_call(self, fixture_path, tmp_path):
        from momentlab import cli

        assert cli.build_parser() is cli.build_parser()
        ratio = ["ratio", "--input", fixture_path, "--p", "8", "--delta-exp", "2", "--output"]
        assert cli.main([*ratio, str(tmp_path / "a.json")]) == 0
        assert cli.main(["karatsuba", "--s", "4", "--k", "2", "--X", "100", "--output", str(tmp_path / "k.json")]) == 0
        assert cli.main([*ratio, str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_pigeonhole_report_deterministic(self):
        args = (
            "pigeonhole-report", "--q", "3", "--k", "2", "--delta-exp", "2",
            "--p", "8", "--seed", "5",
        )
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        data = json.loads(a.stdout)
        assert data["n_buckets"] <= data["class_bound"]

    def test_pigeonhole_report_q_k_must_match_the_fixture(self, fixture_path, capsys):
        # the fixture is at q=3, k=2; its report's config must not claim other values
        from momentlab import cli

        argv = ["pigeonhole-report", "--input", fixture_path, "--delta-exp", "2"]
        for extra in (["--q", "5", "--k", "3"], ["--q", "5"], ["--k", "3"], ["--k", "0"]):
            assert cli.main([*argv, *extra]) == 2
            assert "must match the fixture's q=3, k=2" in json.loads(capsys.readouterr().err)["reason"]
        assert cli.main(argv) == 0
        alone = capsys.readouterr().out
        assert cli.main([*argv, "--q", "3", "--k", "2"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["q"], config["k"]) == (3, 2) and "q" not in json.loads(alone)["config"]

    @pytest.mark.parametrize("s, k, X", [(18, 3, 10**12), (20, 4, 10**10), (24, 4, 10**8)])
    def test_karatsuba_bound_past_the_float_range(self, capsys, s, k, X):
        from fractions import Fraction

        from momentlab import cli

        assert cli.main(["karatsuba", "--s", str(s), "--k", str(k), "--X", str(X)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bound_float"] is None and data["warnings"] == []
        bound = Fraction(data["bound"])
        assert bound > 2**1024
        product = Fraction(1)
        for step in data["steps"]:
            product *= Fraction(step["factor"])
        assert product == bound
        assert cli.main(["karatsuba", "--s", str(s), "--k", str(k), "--X", str(X), "--format", "csv"]) == 0
        assert capsys.readouterr().out.count("\n") == 3 + len(data["steps"])


class TestVerifyAll:
    def test_degree_one_suite_exits_clean(self):
        # k = 1 runs the arithmetic/transform/counting suites only, quickly
        r = run_cli("verify-all", "--q", "3", "--k", "1")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["passed"] and all(s["passed"] for s in data["suites"])
        assert data["threads"] >= 1
        assert "PASS" in r.stderr


class TestFailureModes:
    def test_missing_fixture_is_usage_error_without_partial_output(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli(
            "ratio", "--input", str(tmp_path / "missing.json"),
            "--p", "8", "--delta-exp", "2", "--output", str(out),
        )
        assert r.returncode == 2
        assert not out.exists()
        assert "usage" in r.stderr

    def test_nonprime_q_rejected(self):
        r = run_cli("verify-all", "--q", "4", "--k", "2")
        assert r.returncode == 2
        # past the bound where primality is exact, q is refused, not guessed
        r = run_cli("verify-all", "--q", "3317044064679887385961981", "--k", "2")
        assert r.returncode == 2 and "only decided below 3317044064679887385961981" in r.stderr

    def test_budget_exit_code(self):
        r = run_cli(
            "count-vinogradov", "--s", "8", "--k", "2", "--X", "50", "--budget", "100"
        )
        assert r.returncode == 3
        error = json.loads(r.stderr.splitlines()[-1])
        assert error["error"] == "budget-exceeded"
        assert type(error["estimated"]) is int and error["estimated"] > error["budget"] == 100

    def test_counting_lemma_past_the_budget_exits_3_promptly(self):
        start = time.perf_counter()
        r = run_cli("counting-lemma", "--q", "31", "--k", "2", "--delta-exp", "3", "--kappa-exp", "1")
        assert r.returncode == 3 and time.perf_counter() - start < 10
        error = json.loads(r.stderr.splitlines()[-1])
        # 31 coarse intervals and 31^3 anchors built, then 465 pairs of coarse intervals, each one
        # distribution call that shifts 961 anchors over at most 961 keys
        estimated = 15 * 31 + 40 * 31**3 + 465 * (200 + 961 + 961**2)
        assert error["error"] == "budget-exceeded" and error["estimated"] == estimated > error["budget"]

    def test_linnik_past_the_budget_exits_3_before_listing_residues(self, capsys):
        # the p^k = 1000006000009 residues are neither listed nor scanned before the budget check
        from momentlab import cli

        start = time.perf_counter()
        assert cli.main(["linnik", "--k", "2", "--p", "1000003", "--exhaustive"]) == 3
        assert time.perf_counter() - start < 5
        assert json.loads(capsys.readouterr().err)["error"] == "budget-exceeded"

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_a_usage_error(self, capsys, budget):
        from momentlab import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["count-vinogradov", "--s", "2", "--k", "2", "--X", "5", "--budget", budget])
        assert exc.value.code == 2
        assert f"{budget} is not a positive integer" in capsys.readouterr().err

    def test_bad_fixture_support_is_verification_failure(self, tmp_path):
        from momentlab.geometry import ball
        from momentlab.stepfn import ModulatedStep

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(ModulatedStep.indicator(ball(3, 2, 0)).to_json()))
        r = run_cli("ratio", "--input", str(path), "--p", "8", "--delta-exp", "2")
        assert r.returncode == 4
        assert "verification-failure" in r.stderr

    def test_huge_coefficients_at_large_p(self, fixture_path, tmp_path):
        from momentlab.stepfn import ModulatedStep

        with open(fixture_path) as fh:
            f = ModulatedStep.from_json(json.load(fh))
        big = tmp_path / "big.json"
        big.write_text(json.dumps(f.scaled(1e12).to_json()))
        ratios, lemmas = [], []
        for path in (fixture_path, str(big)):
            r = run_cli("ratio", "--input", path, "--p", "40", "--delta-exp", "2")
            assert r.returncode == 0, r.stderr
            ratios.append(json.loads(r.stdout)["ratio"])
            r = run_cli("main-lemma", "--input", path, "--p", "40", "--delta-exp", "2")
            assert r.returncode == 0, r.stderr
            lemmas.append(json.loads(r.stdout))
        assert abs(ratios[1] - ratios[0]) <= 1e-9 * ratios[0]
        # both sides are homogeneous of degree p, so their ratio is scale-free
        assert "normalized_by" not in lemmas[0] and lemmas[1]["normalized_by"] > 1
        shares = [rep["lhs"] / rep["rhs"] for rep in lemmas]
        assert abs(shares[1] - shares[0]) <= 1e-9 * shares[0]
        assert lemmas[0]["holds"] and lemmas[1]["holds"]

    def test_zero_function_pigeonhole_report(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"q": 3, "k": 2, "terms": []}))
        r = run_cli("pigeonhole-report", "--input", str(path), "--delta-exp", "2")
        assert r.returncode == 0, r.stderr
        data = json.loads(r.stdout)
        assert data["H_star"] == 0.0 and data["buckets"] == []
        assert data["remainder_lp"] == data["remainder_bound"] == 0.0
        assert data["n_buckets"] == 0 and data["class_bound"] == 15

    @pytest.mark.parametrize(
        "fixture",
        [
            [1, 2],
            {"q": 3, "k": 2, "terms": [{"re": "nan", "modulation": ["0", "0"],
                                        "cube": {"corner": ["0", "0"], "scale_exp": 0}}]},
            {"q": 4, "k": 2, "terms": [{"re": 1.0, "modulation": ["0", "0"],
                                        "cube": {"corner": ["0", "0"], "scale_exp": 0}}]},
            {"q": 3, "k": 3, "terms": [{"re": 1.0, "modulation": ["0", "0", "0"],
                                        "cube": {"corner": ["0", "0", "0"], "scale_exp": 0}}]},
            {"q": 3317044064679887385961981, "k": 2, "terms": []},
            {"q": 3, "k": 2},
            {"q": 3, "k": 2, "terms": 5},
            {"q": 3, "k": 2, "terms": [5]},
            {"q": 3, "k": 2, "terms": [{"re": 1.0, "cube": {"corner": ["0", "0"], "scale_exp": 0}}]},
            {"q": 3, "k": 2, "terms": [{"re": 1.0, "modulation": [0, 0],
                                        "cube": {"corner": ["0", "0"], "scale_exp": 0}}]},
            {"q": 3, "k": 2, "terms": [{"re": 1.0, "modulation": ["0", "0"], "cube": {"corner": ["0", "0"]}}]},
            {"q": 3, "k": 2, "terms": [{"re": 1.0, "modulation": ["0", "0"], "cube": [["0", "0"], 0]}]},
            {"q": 3, "k": 2, "terms": [{"re": 1.0, "modulation": "00",
                                        "cube": {"corner": ["0", "0"], "scale_exp": 0}}]},
            {"q": 3, "k": 2, "terms": [{"re": 1.0, "modulation": ["0", "0"],
                                        "cube": {"corner": "00", "scale_exp": 0}}]},
        ],
        ids=["top-level-list", "nan-coefficient", "nonprime-q", "q-not-above-k", "q-past-primality-bound",
             "no-terms", "terms-not-a-list", "term-not-an-object", "no-modulation", "numeric-digits",
             "no-scale-exp", "cube-a-list", "modulation-a-string", "corner-a-string"],
    )
    def test_malformed_fixture_is_usage_error(self, tmp_path, capsys, fixture):
        from momentlab import cli

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(fixture))
        for argv in FIXTURE_COMMANDS:
            assert cli.main([*argv, "--input", str(path), "--delta-exp", "2"]) == 2
            assert '"usage"' in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("q", True), ("q", 3.9), ("q", 3.0), ("q", "3"),
        ("k", True), ("k", 2.2), ("k", "2"),
        ("scale_exp", False), ("scale_exp", 1.7), ("scale_exp", "1"),
        ("re", True), ("re", "1.0"),
        ("im", False), ("im", "0"),
    ])
    def test_fixture_numbers_are_json_integers_and_numbers(self, tmp_path, capsys, field, value):
        # q, k and scale_exp are JSON integers, coefficient parts JSON numbers; nothing is truncated
        from momentlab import cli

        term = {"re": 1.0, "im": 0.0, "modulation": ["0", "0"], "cube": {"corner": ["0", "0"], "scale_exp": 0}}
        doc = {"q": 3, "k": 2, "terms": [term]}
        {"q": doc, "k": doc, "scale_exp": term["cube"]}.get(field, term)[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["ratio", "--input", str(path), "--p", "8", "--delta-exp", "2"]) == 2
        assert "JSON" in json.loads(capsys.readouterr().err)["reason"]

    def test_huge_prime_fixture_hits_the_budget(self, tmp_path, capsys):
        from momentlab import cli

        path = tmp_path / "bigq.json"
        path.write_text(json.dumps({"q": 2**61 - 1, "k": 2, "terms": [
            {"re": 1.0, "modulation": ["0", "0"], "cube": {"corner": ["0", "0"], "scale_exp": 0}}]}))
        assert cli.main(["ratio", "--input", str(path), "--p", "8", "--delta-exp", "1"]) == 3
        assert "budget-exceeded" in capsys.readouterr().err

    def test_float_overflow_in_a_fixture_is_usage_error(self, tmp_path, capsys):
        # a cube of side 3^400 overflows float(Fraction) in the transform's coefficient
        from momentlab import cli

        path = tmp_path / "far.json"
        path.write_text(json.dumps({"q": 3, "k": 2, "terms": [
            {"re": 1.0, "modulation": ["0", "0"], "cube": {"corner": ["0", "0"], "scale_exp": -400}}]}))
        for argv in FIXTURE_COMMANDS:
            assert cli.main([*argv, "--input", str(path), "--delta-exp", "2"]) == 2
            assert '"usage"' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["exponents", "--k", "2", "--p0", "4", "--c0", "2", "--eps", "1/0", "--p-max", "12"],
            ["exponents", "--k", "2", "--p0", "4", "--c0", "1/0", "--eps", "1/10", "--p-max", "12"],
            ["main-lemma", "--input", "g.json", "--p", "8", "--delta-exp", "2", "--eps", "1/0"],
        ],
        ids=["exponents-eps", "exponents-c0", "main-lemma-eps"],
    )
    def test_zero_denominator_is_a_usage_error(self, capsys, argv):
        from momentlab import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "'1/0' has a zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-all", "--q", "3", "--k", "2"],
            ["linnik", "--k", "2", "--p", "3"],
            ["counting-lemma", "--q", "3", "--k", "2", "--delta-exp", "2", "--kappa-exp", "1"],
            ["ratio", "--input", "g.json", "--p", "8", "--delta-exp", "2"],
            ["main-lemma", "--input", "g.json", "--p", "8", "--delta-exp", "2"],
            ["reverse-square", "--input", "g.json", "--delta-exp", "2", "--kappa-exp", "1"],
            ["pigeonhole-report", "--q", "3", "--k", "2", "--delta-exp", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_format_without_a_table_is_a_usage_error(self, capsys, argv):
        # only count-vinogradov, karatsuba and exponents have a table, so only they take --format
        from momentlab import cli

        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["linnik", "--k", "2", "--p", "3", "--residues", "1"],
            ["pigeonhole-report", "--delta-exp", "2"],
            ["karatsuba", "--s", "3", "--k", "2", "--X", "10"],
            ["ratio", "--p", "8", "--delta-exp", "2", "--input", "ZERO"],
            ["reverse-square", "--delta-exp", "2", "--kappa-exp", "1", "--input", "ZERO"],
            ["exponents", "--k", "2", "--p0", "4", "--c0", "0", "--eps", "1/10", "--p-max", "12"],
            ["verify-all", "--q", "3", "--k", "3"],
            ["counting-lemma", "--q", "2", "--k", "2", "--delta-exp", "2", "--kappa-exp", "1"],
            ["counting-lemma", "--q", "5", "--k", "5", "--delta-exp", "1", "--kappa-exp", "1"],
            ["counting-lemma", "--q", "3", "--k", "0", "--delta-exp", "2", "--kappa-exp", "1"],
        ],
        ids=["residue-count", "no-q-or-k", "s-not-multiple-of-k", "zero-ratio", "zero-reverse-square",
             "positivity-violated", "verify-all-q-not-above-k",
             "counting-lemma-q2-k2", "counting-lemma-q5-k5", "counting-lemma-k0"],
    )
    def test_usage_error_exits_2(self, tmp_path, capsys, argv):
        from momentlab import cli

        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"q": 3, "k": 2, "terms": []}))
        assert cli.main([str(zero) if a == "ZERO" else a for a in argv]) == 2
        assert '"usage"' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["pigeonhole-report", "--q", str(2**61 - 1), "--k", "2", "--delta-exp", "2"],
         ["verify-all", "--q", str(2**61 - 1), "--k", "2"]],
        ids=["pigeonhole-report", "verify-all"],
    )
    def test_huge_prime_q_hits_the_budget_quickly(self, argv):
        r = subprocess.run([sys.executable, "-m", "momentlab", *argv], capture_output=True, text=True, timeout=20)
        assert r.returncode == 3, r.stderr
        # every overrun names its estimate against its budget
        if argv[0] == "verify-all":
            overruns = [s for s in json.loads(r.stdout)["suites"] if "budget_exceeded" in s]
        else:
            overruns = [json.loads(r.stderr.splitlines()[-1])]
        assert overruns
        for over in overruns:
            assert type(over["estimated"]) is int and type(over["budget"]) is int
            assert over["estimated"] > over["budget"]

    def test_cube_subdivision_past_the_budget_exits_3(self):
        # at (5,3) with delta 5^-2 the wavepacket split asks for 625^3 cubes
        r = run_capped(["pigeonhole-report", "--q", "5", "--k", "3", "--delta-exp", "2"], timeout=30)
        assert r.returncode == 3, r.stderr
        assert "subdivision into 244140625 cubes" in r.stderr

    def test_verify_all_stdout_is_byte_stable(self):
        first, second = (run_cli("verify-all", "--q", "3", "--k", "2") for _ in range(2))
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout and "runtime_s" not in first.stdout
        # the suite timings go to stderr only
        assert len(first.stderr.splitlines()) == len(json.loads(first.stdout)["suites"])

    def test_cli_and_geometry_load_without_numpy(self):
        # the frame kernels take numpy columns from their callers but never import numpy
        code = "import sys, momentlab.cli, momentlab.geometry; assert 'numpy' not in sys.modules"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr

    def test_counting_paths_load_without_numpy(self, tmp_path):
        # the power-sum distribution imports numpy only for its dense residue arrays
        code = f"""
import sys
from momentlab import cli
from momentlab.vinogradov import count_J, count_J_congruence, karatsuba_bound
assert count_J(3, 2, 10) and karatsuba_bound(4, 2, 100).bound
assert count_J_congruence(3, 2, 10, 3) and count_J_congruence(3, 2, 10, 3, 1)
for argv in (["count-vinogradov", "--s", "3", "--k", "2", "--X", "10", "--mod-p", "3", "--residue", "1"],
             ["counting-lemma", "--q", "5", "--k", "2", "--delta-exp", "2", "--kappa-exp", "1"]):
    assert cli.main([*argv, "--output", {str(tmp_path / "report.json")!r}]) == 0
assert "numpy" not in sys.modules
"""
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr

    def test_production_paths_do_not_load_the_oracle(self, fixture_path):
        # quotient_dft checks the cell planner, so the checks themselves must not use it
        code = f"""
import random, sys
from fractions import Fraction
from momentlab import cli
from momentlab.decoupling import broad_narrow_check
from momentlab.random_instances import random_curve_supported
from momentlab.wavepackets import ScaleConfig
for argv in (["ratio", "--p", "8"], ["main-lemma", "--p", "8"], ["reverse-square", "--kappa-exp", "1"]):
    assert cli.main([*argv, "--delta-exp", "2", "--input", {fixture_path!r}]) == 0
g = random_curve_supported(random.Random(0), 3, 2, 2, 4, 2)
assert broad_narrow_check(g, ScaleConfig.from_epsilon(3, 2, 2, Fraction(1, 2)))["holds"]
assert "momentlab.quotient_dft" not in sys.modules
"""
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr

    def test_budget_overrun_in_a_suite_is_not_a_failure(self):
        from momentlab.errors import BudgetExceededError
        from momentlab.verify import _suite

        @_suite("overrun")
        def overrun(report):
            raise BudgetExceededError("too many cells", estimated=11, budget=10)

        @_suite("fine")
        def fine(report):
            report["cases"] = 1

        over = overrun()
        assert not over["passed"] and over["failures"] == []
        assert over["budget_exceeded"] == "too many cells"
        assert (over["estimated"], over["budget"]) == (11, 10)
        assert "budget_exceeded" not in fine()

    @pytest.mark.parametrize(
        "states, code",
        [(("pass",), 0), (("pass", "budget"), 3), (("budget", "fail"), 4), (("fail",), 4)],
    )
    def test_verify_all_exit_code(self, monkeypatch, capsys, states, code):
        from momentlab import cli, verify

        def report(state):
            r = {"name": state, "passed": state == "pass", "failures": []}
            if state == "fail":
                r["failures"].append("inequality failed")
            if state == "budget":
                r.update(budget_exceeded="too many cells", estimated=11, budget=10)
            return r

        monkeypatch.setattr(verify, "run_all", lambda q, k, seed: [report(s) for s in states])
        assert cli.main(["verify-all", "--q", "3", "--k", "2"]) == code
        out, err = capsys.readouterr()
        assert json.loads(out)["passed"] == (code == 0)
        # after the suite lines, a failure or the first overrun ends stderr as in every other command
        last = err.splitlines()[-1]
        if code == 0:
            assert last.startswith("PASS")
        else:
            error = json.loads(last)
            assert error["error"] == {3: "budget-exceeded", 4: "verification-failure"}[code]
            assert code == 4 or (error["estimated"], error["budget"]) == (11, 10)

    def test_output_file_written_atomically(self, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli(
            "count-vinogradov", "--s", "2", "--k", "2", "--X", "3", "--output", str(out)
        )
        assert r.returncode == 0
        data = json.loads(out.read_text())
        assert data["count"] == 15
        assert not os.path.exists(str(out) + ".tmp")


@st.composite
def fixture_documents(draw):
    """Tiny q = 3 fixtures, each with at most one defect from the ways real fixtures go wrong."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(st.lists(st.integers(), max_size=2), st.integers(), st.text(max_size=3), st.none()))
    k = draw(st.integers(1, 2))
    rat = st.builds(lambda u, v: f"{u}*3^{v}", st.integers(-8, 8), st.integers(-2, 0))
    terms = []
    for _ in range(draw(st.integers(0, 2))):
        s = draw(st.integers(0, 2))
        corner = [f"{draw(st.integers(0, 3 ** s - 1))}" for _ in range(k)]
        terms.append({"re": draw(st.floats(-2, 2)), "im": draw(st.floats(-2, 2)),
                      "modulation": [draw(rat) for _ in range(k)], "cube": {"corner": corner, "scale_exp": s}})
    defect = draw(st.sampled_from(["none", "scale", "coefficient", "huge", "corner", "length"]))
    if terms:
        t = terms[0]
        if defect == "scale":
            t["cube"] = {"corner": ["0"] * k, "scale_exp": draw(st.sampled_from([-400, -40, 40, 400]))}
        elif defect == "coefficient":
            t["re"] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, 5e-324, "nan"]))
        elif defect == "huge":
            t["modulation"][0] = f"{draw(st.sampled_from([10**30 + 1, -(7**40)]))}*3^{draw(st.integers(-2, 40))}"
        elif defect == "corner":
            t["cube"]["corner"][0] = f"1*3^{t['cube']['scale_exp'] + draw(st.integers(-3, -1))}"
        elif defect == "length":
            t["modulation"].append("0")
    return {"q": 3, "k": k, "terms": terms}


class TestFixtureFuzz:
    def test_wide_transform_is_refused_quickly(self, tmp_path, monkeypatch):
        # a term on a cube of side 3^-2 and one on the unit cube: the transform
        # has side 9, so the certificate at delta = 3^-2 reads 3^12 cells, and
        # builds a Cube only for the offender and the witnesses
        from momentlab import cli, geometry

        path = tmp_path / "f.json"
        terms = [{"re": 1.0, "im": 0.0, "modulation": ["0", "0"], "cube": {"corner": ["0", "0"], "scale_exp": s}}
                 for s in (2, 0)]
        path.write_text(json.dumps({"q": 3, "k": 2, "terms": terms}))
        argv = ["reverse-square", "--input", str(path), "--delta-exp", "2", "--kappa-exp", "1",
                "--output", str(tmp_path / "r.json")]
        elapsed = []
        with contextlib.redirect_stderr(io.StringIO()):
            for _ in range(3):
                start = time.perf_counter()
                assert cli.main(argv) == 4
                elapsed.append(time.perf_counter() - start)
            built, real = [], geometry.Cube.__init__
            monkeypatch.setattr(geometry.Cube, "__init__", lambda cube, *a: (built.append(1), real(cube, *a))[1])
            assert cli.main(argv) == 4
        assert min(elapsed) < 0.5
        assert len(built) < 1000

    @settings(max_examples=40, deadline=timedelta(seconds=30), suppress_health_check=[HealthCheck.too_slow])
    @given(fixture_documents(), st.sampled_from(FIXTURE_COMMANDS), st.sampled_from(["1", "2"]))
    def test_every_fixture_exits_within_the_contract(self, doc, argv, delta_exp):
        from momentlab import cli

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*argv, "--input", path, "--delta-exp", delta_exp,
                                 "--output", os.path.join(tmp, "r.json")])
        assert code in (0, 2, 3, 4)


class TestContract:
    """Exits 0/2/3/4 only, each nonzero one explained by one JSON line that
    ends stderr, and one owner for each exit code."""

    @pytest.mark.parametrize(
        "argv, code, deadline",
        [
            (["linnik", "--k", "2", "--p", "2"], 2, 10),
            (["linnik", "--k", "3", "--p", "3", "--exhaustive"], 2, 10),
            (["verify-all", "--q", "2305843009213693951", "--k", "2"], 3, 20),
            (["verify-all", "--q", "3", "--k", "0"], 2, 10),
            (["count-vinogradov", "--s", "1000003", "--k", "2", "--X", "1000000000000"], 3, 5),
            (["pigeonhole-report", "--q", "1000003", "--k", "3", "--delta-exp", "1"], 3, 10),
            (["exponents", "--k", "2", "--p0", "4", "--c0", "2", "--eps", "0.01", "--p-max", "100000000"], 3, 5),
            (["exponents", "--k", "2", "--p0", "4", "--c0", "2", "--eps", "0.01", "--p-max", "100000000",
              "--trajectories"], 3, 5),
            (["exponents", "--k", "2", "--p0", "6", "--c0", "2", "--eps", "1/10", "--p-max", "20000",
              "--trajectories"], 3, 5),
            (["counting-lemma", "--q", "1000003", "--k", "1", "--delta-exp", "1", "--kappa-exp", "1"], 3, 5),
            (["pigeonhole-report", "--q", "1000003", "--k", "2", "--delta-exp", "1"], 3, 5),
            (["exponents", "--k", "2", "--p0", "6", "--c0", "2", "--eps", "1/10", "--p-max", "1000002"], 3, 5),
            (["exponents", "--k", "10", "--p0", "200", "--c0", "2", "--eps", "1/10", "--p-max", "2000200"], 3, 5),
            (["pigeonhole-report", "--q", "499979", "--k", "2", "--delta-exp", "1"], 3, 1),
            (["verify-all", "--q", "101", "--k", "3"], 3, 5),
            (["pigeonhole-report", "--q", "5", "--k", "3", "--delta-exp", "3"], 3, 1),
            (["verify-all", "--q", "1000003", "--k", "2"], 3, 5),
            (["verify-all", "--q", "5", "--k", "3"], 3, 2),
            (["verify-all", "--q", "10007", "--k", "2"], 3, 1),
        ],
        ids=["linnik-p-equals-k", "linnik-p-equals-k-3", "verify-all-huge-q", "verify-all-k0",
             "count-vinogradov-huge-s", "pigeonhole-report-huge-q", "exponents-huge-p-max",
             "exponents-huge-p-max-trajectories", "exponents-unrolled-trajectories", "counting-lemma-huge-q",
             "pigeonhole-report-huge-q-k2", "exponents-plain-rows-past-the-budget",
             "exponents-exact-decay-past-the-budget", "pigeonhole-report-subdivision-before-the-draw",
             "verify-all-tilings-total", "pigeonhole-report-k3-delta-3", "verify-all-million-q",
             "verify-all-wavepacket-split-before-the-draw", "verify-all-extremizer-cells-before-the-split"],
    )
    def test_exit_within_the_deadline_with_a_json_line(self, argv, code, deadline):
        start = time.perf_counter()
        r = run_capped(argv, timeout=deadline + 20)
        assert r.returncode == code, r.stderr
        assert time.perf_counter() - start < deadline
        assert "Traceback" not in r.stderr
        error = json.loads(r.stderr.splitlines()[-1])
        assert error["error"] == {2: "usage", 3: "budget-exceeded"}[code]
        if argv[0] == "verify-all" and code == 2:
            assert len(r.stderr.splitlines()) == 1  # refused before any suite ran

    def test_a_7000_row_exponent_sweep_runs(self):
        # each plain row is charged a constant, so 7,000 rows (well under a second) stay under the budget
        argv = ["exponents", "--k", "2", "--p0", "6", "--c0", "2", "--eps", "1/10", "--p-max", "28002"]
        start = time.perf_counter()
        r = run_capped(argv, timeout=25)
        assert r.returncode == 0, r.stderr
        assert time.perf_counter() - start < 5
        assert len(json.loads(r.stdout)["rows"]) == 7000

    def test_a_14000_row_exact_sweep_at_k2_runs(self):
        # an exact-branch row is charged from the bit length of k^e, so at k = 2 (where k^e is a shift)
        # 14,000 rows (about 0.6 s) stay under the budget
        argv = ["exponents", "--k", "2", "--p0", "4", "--c0", "2", "--eps", "1/10", "--p-max", "56000"]
        start = time.perf_counter()
        r = run_capped(argv, timeout=25)
        assert r.returncode == 0, r.stderr
        assert time.perf_counter() - start < 5
        assert len(json.loads(r.stdout)["rows"]) == 14000

    def test_exit_codes_are_read_only_in_main(self):
        codes = {"EXIT_USAGE", "EXIT_BUDGET", "EXIT_VERIFICATION"}
        readers = set()
        for path in sorted(SRC.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Name) and node.id in codes and isinstance(node.ctx, ast.Load):
                        readers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
        assert readers == {"cli.main"}

    def test_no_bare_package_error_is_raised(self):
        # each exception class means one exit code, so the base class is only caught
        bare = [
            f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "MomentLabError"
        ]
        assert bare == []
