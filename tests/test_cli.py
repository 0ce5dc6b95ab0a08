"""CLI behavior: output formats, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import cli, distributions, identities, qseries
from qident.distributions import Family, MeasureParams
from qident.partitions import ParityConstraint, enumerate_partitions, summand_weight
from qident.rational import q_power
from qident.report import VerificationReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_anz1_json(capsys):
    code, out = run_cli(capsys, "verify", "anz1", "--m-max", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["identity"] == "ANZ1"
    assert payload["pass"] is True
    assert payload["counterexample"] is None


def test_verify_text_format(capsys):
    code, out = run_cli(capsys, "verify", "anz1", "--m-max", "1", "--format", "text")
    assert code == 0
    assert out.startswith("ANZ1 m_max=1: PASS")


def test_verify_selector_groups(capsys):
    code, out = run_cli(capsys, "verify", "eq5", "--m-max", "2")
    assert code == 0
    ids = [json.loads(line)["identity"] for line in out.strip().splitlines()]
    assert ids == ["EQ5", "C1_SUM", "C2_SUM"]


def test_verify_qseries_deterministic(capsys):
    args = ("verify", "qseries", "--qseries-n-max", "2", "--tuples-per-n", "4")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_normalization_and_marginals(capsys):
    code, out = run_cli(capsys, "verify", "normalization", "--order", "6")
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    code, out = run_cli(capsys, "verify", "marginals", "--k-max", "1", "--order", "4")
    assert code == 0


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(identities, "rhs_anz1", lambda m: identities.lhs_anz1(m) + 1)
    code, out = run_cli(capsys, "verify", "anz1", "--m-max", "1")
    assert code == 1
    payload = json.loads(out.strip().splitlines()[0])
    assert payload["pass"] is False
    assert payload["counterexample"]["index"] == {"m": 0}


def test_verify_rejects_bad_selector():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_rejects_bad_m_max():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "anz1", "--m-max", "0"])
    assert exc.value.code == 2


def test_partitions_listing(capsys):
    code, out = run_cli(capsys, "partitions", "--n", "4", "--constraint", "odd-even-mult")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["partition"] for r in rows] == [[4], [2, 2], [2, 1, 1], [1, 1, 1, 1]]


def test_partitions_zero(capsys):
    code, out = run_cli(capsys, "partitions", "--n", "0")
    assert code == 0
    assert json.loads(out.strip()) == {"partition": []}


def test_partitions_weights_match_formulas(capsys):
    code, out = run_cli(
        capsys,
        "partitions", "--n", "2", "--constraint", "odd-even-mult", "--weights", "sp",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    expected = [
        ((1 - q_power(-1)) / q_power(1)).as_dict(),
        q_power(-3).as_dict(),
    ]
    assert [r["weight"] for r in rows] == expected


@pytest.mark.parametrize("constraint", ["none", "odd-even-mult", "even-even-mult"])
@pytest.mark.parametrize("family", ["sp", "o"])
def test_partitions_weights_match_reference(capsys, constraint, family):
    """Every printed weight, JSON and text, is the Q(q) reference weight."""
    sign = Family(family).sign
    for n in range(9):
        argv = ["partitions", "--n", str(n), "--constraint", constraint, "--weights", family]
        parts = enumerate_partitions(n, ParityConstraint(constraint))
        expected = [summand_weight(p, sign) for p in parts]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["partition"] for r in rows] == [p.to_json() for p in parts]
        assert [r["weight"] for r in rows] == [w.as_dict() for w in expected]
        code, out = run_cli(capsys, *argv, "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            f"{p.to_json()}  weight={w}" for p, w in zip(parts, expected)
        ]


def test_dist_sample_deterministic(capsys):
    args = (
        "dist", "sample", "--family", "sp", "--q", "2", "--u", "1/2",
        "--max-size", "6", "--count", "5", "--seed", "42",
    )
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1.strip())
    assert len(payload["samples"]) == 5
    assert payload["metadata"]["seed"] == 42
    assert "truncated_mass_bound" in payload["metadata"]


def test_dist_eval_probabilities_sum_below_one(capsys):
    code, out = run_cli(
        capsys,
        "dist", "eval", "--family", "o", "--q", "3", "--u", "1/3", "--max-size", "4",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    rows, summary = lines[:-1], lines[-1]
    from fractions import Fraction

    total = sum(Fraction(r["probability"]) for r in rows)
    assert 0 < total < 1
    assert Fraction(summary["support_probability"]) == total
    assert Fraction(summary["truncated_mass_bound"]) > 0


def test_dist_rejects_invalid_params():
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["dist", "sample", "--family", "sp", "--q", "1/2", "--u", "1/2"]
        )
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["dist", "eval", "--family", "o", "--q", "2", "--u", "5/4"])
    assert exc.value.code == 2


def test_dist_rejects_malformed_fraction():
    with pytest.raises(SystemExit) as exc:
        cli.main(["dist", "eval", "--family", "o", "--q", "two", "--u", "1/2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "marginals", "--k-max", "-2"],
        ["verify", "qseries", "--tuples-per-n", "0"],
        ["verify", "qseries", "--qseries-n-max", "-1"],
        ["verify", "normalization", "--order", "-1"],
        ["partitions", "--n", "-1"],
        ["dist", "eval", "--family", "sp", "--q", "2", "--u", "1/2", "--max-size", "-1"],
        ["dist", "sample", "--family", "sp", "--q", "2", "--u", "1/2", "--count", "-1"],
    ],
)
def test_rejects_out_of_range_numbers(capsys, argv):
    # each of these once printed a vacuous PASS or raised a raw ValueError
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[-2]} must be at least" in captured.err


def test_dist_sample_rejects_a_negative_seed(capsys):
    # random.Random(-5) draws as random.Random(5): the run would print the
    # draws of --seed 5 and echo "seed":-5
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["dist", "sample", "--family", "sp", "--q", "2", "--u", "1/2", "--seed", "-5"]
        )
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be at least 0, got -5" in captured.err


def test_verify_qseries_keeps_negative_seeds_distinct(capsys):
    # verify qseries seeds from strings, so --seed -5 is a stream of its own
    args = ("verify", "qseries", "--qseries-n-max", "2", "--tuples-per-n", "4")
    code, negative = run_cli(capsys, *args, "--seed", "-5")
    assert code == 0
    code, positive = run_cli(capsys, *args, "--seed", "5")
    assert code == 0
    assert negative.replace('"seed":-5', '"seed":5') != positive


@pytest.mark.parametrize("family", ["sp", "o"])
@pytest.mark.parametrize("q", ["2", "6/5"])
def test_dist_sample_json_is_the_structural_form(capsys, family, q):
    """The JSON stdout, assembled from per-partition texts, is the canonical
    dump of ``to_json_dict``, and the draws are support indices."""
    params = MeasureParams.with_tolerance(
        Fraction(q), Fraction(1, 2), cli._DEFAULT_TAIL_TOLERANCE
    )
    for count in (0, 1, 2000):
        for seed in (0, 13, 42):
            code, out = run_cli(
                capsys, "dist", "sample", "--family", family, "--q", q, "--u", "1/2",
                "--max-size", "8", "--count", str(count), "--seed", str(seed),
            )
            assert code == 0
            result = distributions.sample(Family(family), params, 8, count, seed)
            expected = json.dumps(result.to_json_dict(), sort_keys=True, separators=(",", ":"))
            assert out == expected + "\n"
            support, indices = result.support, result.indices
            assert len(indices) == count
            assert all(type(i) is int and 0 <= i < len(support) for i in indices)
            assert result.partitions == tuple(support[i] for i in indices)


def test_verify_rejects_malformed_m_max_env(capsys, monkeypatch):
    monkeypatch.setenv("QIDENT_M_MAX", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "anz1"])
    assert exc.value.code == 2
    assert "QIDENT_M_MAX" in capsys.readouterr().err


def test_verify_m_max_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QIDENT_M_MAX", "2")
    code, out = run_cli(capsys, "verify", "anz1")
    assert code == 0
    assert json.loads(out)["params"] == {"m_max": 2}
    code, out = run_cli(capsys, "verify", "anz1", "--m-max", "1")
    assert json.loads(out)["params"] == {"m_max": 1}


def test_dist_sample_refuses_a_count_above_the_cap(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be drawn above the cap")

    monkeypatch.setattr(distributions, "sample", refuse)
    cap = cli._MAXIMUM["count"]
    argv = ["dist", "sample", "--family", "sp", "--q", "2", "--u", "1/2", "--count"]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, str(cap + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qident: error: --count must be at most {cap}, got {cap + 1}\n"


def test_count_cap_is_documented(capsys):
    with pytest.raises(SystemExit):
        cli.main(["dist", "sample", "--help"])
    assert f"at most {cli._MAXIMUM['count']}" in capsys.readouterr().out


#: One run of each kind, ending in a usage error that exits 2.
REUSED_PARSER_RUNS = (
    ["verify", "anz2", "--m-max", "3"],
    ["dist", "sample", "--family", "o", "--q", "2", "--u", "1/2", "--count", "20", "--seed", "5"],
    ["partitions", "--n", "5", "--weights", "sp", "--format", "text"],
    ["verify", "anz1", "--m-max", "0"],
)


def _alone(argv):
    """stdout and exit code of argv run in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("QIDENT_M_MAX", None)
    done = subprocess.run(
        [sys.executable, "-m", "qident", *argv], capture_output=True, text=True, env=env
    )
    return done.stdout, done.returncode


def test_main_calls_in_one_process_match_calls_run_alone(capsys, monkeypatch):
    monkeypatch.delenv("QIDENT_M_MAX", raising=False)
    together = []
    for argv in REUSED_PARSER_RUNS:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        together.append((capsys.readouterr().out, code))
    assert [code for _, code in together] == [0, 0, 0, 2]
    assert together == [_alone(argv) for argv in REUSED_PARSER_RUNS]
    assert cli._parser() is cli._parser()


def test_verify_refuses_an_order_above_the_cap(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no series may be built above the cap")

    monkeypatch.setattr(distributions, "normalization_check", refuse)
    cap = cli._MAXIMUM["order"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "normalization", "--order", str(cap + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qident: error: --order must be at most {cap}, got {cap + 1}\n"


def test_verify_accepts_the_order_cap(capsys, monkeypatch):
    orders = []

    def stand_in(family, order):
        orders.append(order)
        report = VerificationReport(f"normalization-{family.value}", params={"order": order})
        report.record({"u_power": 0}, 1, 1)
        return report

    monkeypatch.setattr(distributions, "normalization_check", stand_in)
    cap = cli._MAXIMUM["order"]
    code, out = run_cli(capsys, "verify", "normalization", "--order", str(cap))
    assert code == 0
    assert orders == [cap, cap]
    assert [json.loads(line)["params"] for line in out.splitlines()] == [{"order": cap}] * 2


def test_order_cap_is_documented(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    assert f"at most {cli._MAXIMUM['order']}" in capsys.readouterr().out


def test_verify_refuses_a_k_max_above_the_cap(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no marginal may be built above the cap")

    monkeypatch.setattr(distributions, "marginal_vs_bruteforce", refuse)
    cap = cli._MAXIMUM["k_max"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "marginals", "--k-max", str(cap + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qident: error: --k-max must be at most {cap}, got {cap + 1}\n"


def test_verify_accepts_the_k_max_cap(capsys, monkeypatch):
    k_maxes = []

    def stand_in(family, k_max, order):
        k_maxes.append(k_max)
        report = VerificationReport(
            f"marginals-{family.value}", params={"k_max": k_max, "order": order}
        )
        report.record({"column": 0, "u_power": 0}, 1, 1)
        return report

    monkeypatch.setattr(distributions, "marginal_vs_bruteforce", stand_in)
    cap = cli._MAXIMUM["k_max"]
    code, out = run_cli(capsys, "verify", "marginals", "--k-max", str(cap))
    assert code == 0
    assert k_maxes == [cap, cap]
    params = [json.loads(line)["params"] for line in out.splitlines()]
    assert params == [{"k_max": cap, "order": 12}] * 2


def test_k_max_cap_is_documented(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"--k-max K_MAX marginal column half-range, at most {cli._MAXIMUM['k_max']}" in help_text


def test_k_max_cap_covers_every_first_column_below_the_order_cap():
    assert 2 * cli._MAXIMUM["k_max"] >= cli._MAXIMUM["order"]


def _refuse_check(m_max):
    raise AssertionError("no table may be built above the cap")


def test_verify_refuses_an_m_max_above_the_cap(capsys, monkeypatch):
    monkeypatch.setitem(identities.CHECKS, "ANZ1", _refuse_check)
    cap = cli._MAXIMUM["m_max"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "anz1", "--m-max", str(cap + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qident: error: --m-max must be at most {cap}, got {cap + 1}\n"


def test_verify_refuses_an_m_max_above_the_cap_from_the_environment(capsys, monkeypatch):
    monkeypatch.setitem(identities.CHECKS, "ANZ1", _refuse_check)
    cap = cli._MAXIMUM["m_max"]
    monkeypatch.setenv("QIDENT_M_MAX", str(cap + 1))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "anz1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qident: error: --m-max must be at most {cap}, got {cap + 1}\n"


def test_verify_accepts_the_m_max_cap(capsys, monkeypatch):
    m_maxes = []

    def stand_in(m_max):
        m_maxes.append(m_max)
        report = VerificationReport("ANZ1", params={"m_max": m_max})
        report.record({"m": 0}, 1, 1)
        return report

    monkeypatch.setitem(identities.CHECKS, "ANZ1", stand_in)
    cap = cli._MAXIMUM["m_max"]
    code, out = run_cli(capsys, "verify", "anz1", "--m-max", str(cap))
    assert code == 0
    assert m_maxes == [cap]
    assert json.loads(out)["params"] == {"m_max": cap}


def test_m_max_cap_is_documented(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"--m-max M_MAX at most {cli._MAXIMUM['m_max']}" in help_text


#: Each capped option of the 2phi1 sweeps: flag, argparse dest and the
#: keyword it reaches ``random_hypergeometric_reports`` under.
SWEEP_CAPS = [
    ("--qseries-n-max", "qseries_n_max", "n_max"),
    ("--tuples-per-n", "tuples_per_n", "tuples_per_n"),
]


def _refuse_sweeps(**kwargs):
    raise AssertionError("no sweep may run above the cap")


@pytest.mark.parametrize("flag, dest, keyword", SWEEP_CAPS)
def test_verify_refuses_a_sweep_option_above_its_cap(capsys, monkeypatch, flag, dest, keyword):
    monkeypatch.setattr(qseries, "random_hypergeometric_reports", _refuse_sweeps)
    cap = cli._MAXIMUM[dest]
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "qseries", flag, str(cap + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qident: error: {flag} must be at most {cap}, got {cap + 1}\n"


@pytest.mark.parametrize("flag, dest, keyword", SWEEP_CAPS)
def test_verify_accepts_the_sweep_caps(capsys, monkeypatch, flag, dest, keyword):
    calls = []

    def stand_in(**kwargs):
        calls.append(kwargs)
        report = VerificationReport("qchu", params=kwargs)
        report.record({"n": 0}, 1, 1)
        return [report]

    monkeypatch.setattr(qseries, "random_hypergeometric_reports", stand_in)
    cap = cli._MAXIMUM[dest]
    code, out = run_cli(capsys, "verify", "qseries", flag, str(cap))
    expected = {"n_max": 8, "tuples_per_n": 20, "seed": qseries.DEFAULT_SEED, keyword: cap}
    assert code == 0
    assert calls == [expected]
    assert json.loads(out)["params"] == expected


@pytest.mark.parametrize("flag, dest, keyword", SWEEP_CAPS)
def test_sweep_caps_are_documented(capsys, flag, dest, keyword):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"{flag} {dest.upper()} at most {cli._MAXIMUM[dest]}" in help_text


DIST_ARGV = ["dist", "eval", "--family", "sp", "--q", "2", "--u", "1/2"]


def _refuse(*args, **kwargs):
    raise AssertionError("no weight or prefactor may be computed above the cap")


def test_dist_refuses_a_max_size_above_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(distributions, "support_weights", _refuse)
    monkeypatch.setattr(distributions, "sample", _refuse)
    cap = cli._MAXIMUM["max_size"]
    for action in ("eval", "sample"):
        argv = [*DIST_ARGV, "--max-size", str(cap + 1)]
        argv[1] = action
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qident: error: --max-size must be at most {cap}, got {cap + 1}\n"


def test_dist_accepts_the_max_size_cap(capsys, monkeypatch):
    sizes = []

    def stand_in(family, params, max_size):
        sizes.append(max_size)
        return [], []

    monkeypatch.setattr(distributions, "support_weights", stand_in)
    cap = cli._MAXIMUM["max_size"]
    code, out = run_cli(capsys, *DIST_ARGV, "--max-size", str(cap))
    assert code == 0
    assert sizes == [cap]
    assert json.loads(out)["support_probability"] == "0"


def test_max_size_cap_is_documented(capsys):
    with pytest.raises(SystemExit):
        cli.main(["dist", "eval", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    cap = cli._MAXIMUM["max_size"]
    assert f"--max-size MAX_SIZE largest partition size, at most {cap}" in help_text


def test_partitions_refuses_an_n_above_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_partitions", _refuse)
    cap = cli._MAXIMUM["n"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["partitions", "--n", str(cap + 1), "--weights", "sp"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qident: error: --n must be at most {cap}, got {cap + 1}\n"


def test_partitions_accepts_the_n_cap(capsys, monkeypatch):
    sizes = []

    def stand_in(n, constraint):
        sizes.append(n)
        return iter(())

    monkeypatch.setattr(cli, "enumerate_partitions", stand_in)
    cap = cli._MAXIMUM["n"]
    code, out = run_cli(capsys, "partitions", "--n", str(cap), "--weights", "sp")
    assert (code, out, sizes) == (0, "", [cap])


def test_n_cap_is_documented(capsys):
    with pytest.raises(SystemExit):
        cli.main(["partitions", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"--n N partition size, at most {cli._MAXIMUM['n']}" in help_text


def _tail_tolerance_for_cutoff(cutoff):
    """The --tail-tol whose smallest admissible product cutoff at q = 2,
    u = 1/2 is exactly ``cutoff``."""
    bound = MeasureParams(2, Fraction(1, 2), cutoff, 1).tail_bound
    assert MeasureParams.with_tolerance(2, Fraction(1, 2), bound).product_cutoff == cutoff
    return str(bound)


@pytest.mark.parametrize(
    "argv, cutoff",
    [
        (["dist", "eval", "--family", "sp", "--q", "101/100", "--u", "1/2"], 1169),
        (["dist", "sample", "--family", "o", "--q", "101/100", "--u", "1/2"], 1169),
        (
            [*DIST_ARGV, "--tail-tol", _tail_tolerance_for_cutoff(cli._MAX_PRODUCT_CUTOFF + 1)],
            cli._MAX_PRODUCT_CUTOFF + 1,
        ),
    ],
    ids=["eval-near-1", "sample-near-1", "eval-tight-tolerance"],
)
def test_dist_refuses_a_product_cutoff_above_the_cap(capsys, monkeypatch, argv, cutoff):
    for name in ("truncated_prefactor", "support_weights", "sample"):
        monkeypatch.setattr(distributions, name, _refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"qident: error: --q, --u and --tail-tol need a product cutoff of {cutoff}, "
        f"above the cap of {cli._MAX_PRODUCT_CUTOFF}\n"
    )


def test_dist_accepts_the_product_cutoff_cap(capsys, monkeypatch):
    cutoffs = []

    def stand_in(family, params):
        cutoffs.append(params.product_cutoff)
        return Fraction(1, 2)

    monkeypatch.setattr(distributions, "truncated_prefactor", stand_in)
    cap = cli._MAX_PRODUCT_CUTOFF
    tolerance = _tail_tolerance_for_cutoff(cap)
    code, out = run_cli(capsys, *DIST_ARGV, "--max-size", "0", "--tail-tol", tolerance)
    assert code == 0
    assert cutoffs == [cap]
    assert json.loads(out.splitlines()[0])["probability"] == "1/2"


def test_product_cutoff_cap_admits_q_eleven_tenths():
    tolerance = cli._DEFAULT_TAIL_TOLERANCE
    params = MeasureParams.with_tolerance(Fraction(11, 10), Fraction(1, 2), tolerance)
    assert params.product_cutoff == 111 <= cli._MAX_PRODUCT_CUTOFF


def test_product_cutoff_cap_is_documented(capsys):
    for action in ("eval", "sample"):
        with pytest.raises(SystemExit):
            cli.main(["dist", action, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"whose cutoff may be at most {cli._MAX_PRODUCT_CUTOFF}" in help_text


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_one_without_a_traceback(unbuffered):
    # about 700 kB of rows, far more than a pipe holds, so the CLI is still
    # writing when the reader goes away
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qident", "partitions", "--n", "34"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b'{"partition":[34]}\n'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_unprintable_sample_metadata_raises_before_any_draw(capsys, monkeypatch):
    """At q = 11/10 the support probability has more digits than Python
    prints: the run stops with that ValueError before random() is called,
    while at q = 6/5 the same stand-in sees every draw."""
    import random

    calls = []

    class Counting(random.Random):
        def random(self):
            calls.append(None)
            return super().random()

    monkeypatch.setattr(random, "Random", Counting)
    argv = ["dist", "sample", "--family", "o", "--u", "1/2", "--max-size", "16", "--count"]
    with pytest.raises(ValueError, match="digits"):
        cli.main([*argv, "200000", "--q", "11/10"])
    assert calls == []
    assert capsys.readouterr().out == ""
    code, _ = run_cli(capsys, *argv, "1000", "--q", "6/5")
    assert (code, len(calls)) == (0, 1000)


_BATCH = distributions.BATCH


@pytest.mark.parametrize("count", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
def test_dist_sample_stdout_is_the_structural_form_across_batches(capsys, count):
    """JSON and text stdout at counts around the batch size: the rows of
    every batch add up to the dump of ``sample(...)``."""
    params = MeasureParams.with_tolerance(
        Fraction(6, 5), Fraction(1, 2), cli._DEFAULT_TAIL_TOLERANCE
    )
    result = distributions.sample(Family.O, params, 6, count, 13)
    argv = ["dist", "sample", "--family", "o", "--q", "6/5", "--u", "1/2", "--max-size", "6",
            "--count", str(count), "--seed", "13"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(result.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    code, out = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert out == "".join(f"{p.to_json()}\n" for p in result.partitions) + (
        f"seed=13 support={float(result.support_probability):.6g} "
        f"truncated_mass_bound={float(result.truncated_mass_bound):.3g}\n"
    )


_DIST_NEEDS = ("--family", "sp", "--q", "2", "--u", "1/2")

#: Each capped option: the command whose help lists it, the arguments that
#: command needs besides it, and its flag.
CAPPED_OPTIONS = [
    (("verify",), ("all",), "--m-max"),
    (("verify",), ("all",), "--order"),
    (("verify",), ("all",), "--k-max"),
    (("verify",), ("all",), "--tuples-per-n"),
    (("verify",), ("all",), "--qseries-n-max"),
    (("partitions",), (), "--n"),
    (("dist", "eval"), _DIST_NEEDS, "--max-size"),
    (("dist", "sample"), _DIST_NEEDS, "--count"),
]


@pytest.mark.parametrize(
    "command, needs, flag", CAPPED_OPTIONS, ids=[flag for _, _, flag in CAPPED_OPTIONS]
)
def test_help_shows_the_cap_and_the_default_applied(capsys, monkeypatch, command, needs, flag):
    """Each capped option's help gives its cap and the default the parser
    applies, so the two cannot drift apart."""
    assert {f[2:].replace("-", "_") for _, _, f in CAPPED_OPTIONS} == set(cli._MAXIMUM)
    monkeypatch.delenv("QIDENT_M_MAX", raising=False)
    with pytest.raises(SystemExit):
        cli.main([*command, "--help"])
    entries = re.split(r"\n  (?=-)", capsys.readouterr().out)
    entry = " ".join(next(e for e in entries if e.startswith(flag + " ")).split())
    dest = flag[2:].replace("-", "_")
    assert f"at most {cli._MAXIMUM[dest]}" in entry
    shown = re.search(r"\(default: (.*)\)$", entry)
    if flag == "--n":  # required, so no default applies
        assert shown is None
        with pytest.raises(SystemExit):
            cli.main([*command, *needs])
        return
    args = cli.build_parser().parse_args([*command, *needs])
    cli._check_numbers(args)
    applied = getattr(args, dest)
    if flag == "--m-max":  # applied after parsing, from the environment
        assert shown.group(1) == f"$QIDENT_M_MAX or {applied}"
    else:
        assert shown.group(1) == str(applied)


# ---------------------------------------------------------------------------
# dist eval's probabilities, rendered from one decimal prefactor
# ---------------------------------------------------------------------------

_LONG = st.integers(10**999 // 6 + 1, 10**4000 // 6)  # 6 n + 1 has 1,000-4,000 digits
_SHORT = st.integers(0, 10**200)


@st.composite
def _prefactor_and_weights(draw):
    """x = +-2^i A / (3^j B) with A, B prime to 6 keeps 2^i in its numerator
    and 3^j in its denominator, and each weight 3^k C / (2^l D) shares 3
    with the one and 2 with the other, so both cross gcds exceed 1.  The
    list also holds a weight that makes x w an integer, zero and negatives."""
    sign = draw(st.sampled_from((1, -1)))
    i, j = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    x = Fraction(sign * 2**i * (6 * draw(_LONG) + 1), 3**j * (6 * draw(_LONG) + 1))
    shared = st.builds(
        lambda k, c, l, d, s: Fraction(s * 3**k * (6 * c + 1), 2**l * (6 * d + 1)),
        st.integers(1, 20), _SHORT, st.integers(1, 20), _SHORT, st.sampled_from((1, -1)),
    )
    weights = draw(st.lists(shared, min_size=1, max_size=4))
    whole = draw(st.integers(-(10**200), 10**200))
    return x, weights + [Fraction(whole * x.denominator, x.numerator), Fraction(0)]


@settings(max_examples=30, deadline=None)
@given(_prefactor_and_weights())
def test_products_render_as_the_fraction_str(case):
    x, weights = case
    assert list(cli._products(x, weights)) == [str(x * w) for w in weights]


def test_products_keep_the_int_digit_limit():
    """A numerator or denominator of 4,300 digits prints and one of 4,301
    raises at its own row, as str does; with no limit every row prints."""
    old = sys.get_int_max_str_digits()
    top = 10**4299 + 7  # 4,300 digits
    cases = [(Fraction(top, 3), Fraction(10)), (Fraction(3, top), Fraction(1, 10))]
    try:
        sys.set_int_max_str_digits(4300)
        for x, over in cases:
            rows = cli._products(x, [Fraction(1), Fraction(-2, 5), over])
            assert [next(rows), next(rows)] == [str(x), str(x * Fraction(-2, 5))]
            with pytest.raises(ValueError, match="digits"):
                str(x * over)
            with pytest.raises(ValueError, match="digits"):
                next(rows)
        sys.set_int_max_str_digits(0)
        for x, over in cases:
            weights = [over, over**5, Fraction(7, 9) ** 3000]
            assert list(cli._products(x, weights)) == [str(x * w) for w in weights]
    finally:
        sys.set_int_max_str_digits(old)


_UNPRINTABLE_ARGV = ["dist", "eval", "--family", "o", "--u", "1/2"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_unprintable_dist_eval_raises_before_any_row(capsys, fmt):
    """At q = 11/10 every probability has more digits than Python prints."""
    argv = [*_UNPRINTABLE_ARGV, "--q", "11/10", "--max-size", "16", "--format", fmt]
    with pytest.raises(ValueError, match="digits"):
        cli.main(argv)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_dist_eval_prints_the_printable_rows_before_the_digit_limit(capsys, fmt):
    """At q = 10^300 the first rows print, and the first probability that
    str() of the Fraction cannot print raises the same ValueError."""
    params = MeasureParams.with_tolerance(Fraction(10**300), Fraction(1, 2), Fraction(1, 10**9))
    support, weights = distributions.support_weights(Family.O, params, 12)
    prefactor = distributions.truncated_prefactor(Family.O, params)
    expected = []
    try:
        for p, weight in zip(support, weights):
            value = prefactor * weight
            if fmt == "json":
                row = {"partition": p.to_json(), "probability": str(value),
                       "tail_bound": str(params.tail_bound)}
                expected.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
            else:
                expected.append(f"{p.to_json()}  p={float(value):.6g} ({value})")
    except ValueError:
        pass
    assert 0 < len(expected) < len(support)
    argv = [*_UNPRINTABLE_ARGV, "--q", "1e300", "--max-size", "12", "--format", fmt]
    with pytest.raises(ValueError, match="digits"):
        cli.main(argv)
    assert capsys.readouterr().out == "".join(line + "\n" for line in expected)
