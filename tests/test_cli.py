"""Command-line interface: subcommands, exit codes, deterministic JSON."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from superstar.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# star
# ---------------------------------------------------------------------------


def test_star_product_example(capsys):
    code, rep = run_json(capsys, "star", "--theta", "1", "--m", "1",
                         "--n", "0", "x1 star x2")
    assert code == 0
    assert rep["expression"] == "x1 star x2"
    assert rep["ledger"]["sigma"] == -1
    assert rep["context"] == {"theta": 1.0, "m": 1, "n": 0, "signature": [0, 0]}
    (entry,) = rep["result"]
    assert entry["odd_indices"] == []
    terms = {tuple(t["alpha"]): complex(*t["c"])
             for t in entry["function"]["terms"]}
    assert abs(terms[(1, 1)] - 1.0) <= 1e-15
    assert abs(terms[(0, 0)] - (-0.5j)) <= 1e-15


def test_star_odd_output_lists_generator_indices(capsys):
    code, rep = run_json(capsys, "star", "--theta", "0.7", "--n", "2",
                         "--signature", "1,1", "xi1 * xi2")
    assert code == 0
    words = {tuple(e["odd_indices"]) for e in rep["result"]}
    assert words == {(1, 2)}


def test_star_syntax_error_exits_2(capsys):
    code, out, err = run_cli(capsys, "star", "x1 star")
    assert code == 2
    assert "end of input" in err
    assert out == ""


def test_star_out_of_range_coordinate_exits_2(capsys):
    code, out, err = run_cli(capsys, "star", "--m", "1", "--n", "1", "x5")
    assert code == 2
    assert "out of range" in err


def test_star_bad_signature_exits_2(capsys):
    code, out, err = run_cli(capsys, "star", "--n", "1",
                             "--signature", "2,2", "x1")
    assert code == 2
    assert "signature" in err


@pytest.mark.parametrize("theta", ["1e-300", "1e300", "inf"])
def test_star_theta_out_of_range_exits_2(capsys, theta):
    # 1e-300 underflows and 1e300 overflows the kernel prefactor 1/(pi theta)^2;
    # inf is no deformation parameter at all
    code, out, err = run_cli(capsys, "star", "--theta", theta, "--m", "1",
                             "exp(-x1*x1) star exp(-x2*x2)")
    assert code == 2
    assert out == ""
    assert "theta" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_star_negative_theta_in_scientific_notation(capsys):
    # argparse's own negative-number pattern has no exponent
    code, rep = run_json(capsys, "star", "--theta", "-1e-3", "--m", "1",
                         "x1 star x2")
    assert code == 0
    assert rep["context"]["theta"] == -0.001
    (entry,) = rep["result"]
    terms = {tuple(t["alpha"]): complex(*t["c"])
             for t in entry["function"]["terms"]}
    assert abs(terms[(0, 0)] - 0.0005j) <= 1e-18


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_eps_spec_invocation(capsys):
    code, rep = run_json(capsys, "verify", "suite=eps", "--n", "4")
    assert code == 0
    assert rep["passed"] is True
    assert rep["cases"] == 512
    assert rep["suite"] == "eps"


def test_verify_accepts_bare_suite_name(capsys):
    _, out_a, _ = run_cli(capsys, "verify", "suite=eps", "--n", "3")
    _, out_b, _ = run_cli(capsys, "verify", "eps", "--n", "3")
    assert out_a == out_b


def test_verify_unknown_suite_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "suite=nope")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("n", ["0", "11"])
def test_verify_eps_universe_out_of_range_exits_2(capsys, n):
    # n = 0 has no overlapping subset pair: its first check would run 0 cases
    code, out, err = run_cli(capsys, "verify", "eps", "--n", n)
    assert code == 2
    assert out == ""
    assert "1..10" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
def test_verify_bad_tolerance_exits_2(capsys, tol):
    with pytest.raises(SystemExit) as info:
        main(["verify", "eps", "--tol", tol])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance must be finite and >= 0" in captured.err


def test_verify_n_on_other_suite_exits_2(capsys):
    # --n sizes the eps universe only; any other suite would ignore it
    code, out, err = run_cli(capsys, "verify", "hilbert", "--n", "3")
    assert code == 2
    assert out == ""
    assert "eps" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_deterministic_bytes(capsys):
    _, out_a, _ = run_cli(capsys, "verify", "hilbert", "--seed", "5")
    _, out_b, _ = run_cli(capsys, "verify", "hilbert", "--seed", "5")
    assert out_a == out_b


def test_verify_report_carries_ledger(capsys):
    code, rep = run_json(capsys, "verify", "eps", "--n", "3")
    assert rep["ledger"]["sigma"] == -1
    assert len(rep["ledger"]["c_plus"]) == 1


# ---------------------------------------------------------------------------
# supertorus
# ---------------------------------------------------------------------------


def test_normalize_crossing_example(capsys):
    code, rep = run_json(capsys, "supertorus", "normalize", "V1 U1",
                         "--theta", "0.5")
    assert code == 0
    assert rep["word"] == "U1 V1"
    assert rep["phase"] == "exp(-2*pi*i*0.5)"


def test_normalize_symbolic_theta(capsys):
    code, rep = run_json(capsys, "supertorus", "normalize", "V1 U1")
    assert code == 0
    assert rep["phase"] == "exp(-2*pi*i*theta)"


def test_normalize_odd_square(capsys):
    code, rep = run_json(capsys, "supertorus", "normalize", "G1 G1")
    assert code == 0
    (entry,) = rep["normal_form"]
    assert entry["word"] == "1"
    assert entry["theta_power"] == 1
    assert entry["coefficient"] == [0.0, 1.0]
    assert entry["phase"] == "1"


def test_normalize_mixed_word_powers(capsys):
    code, rep = run_json(capsys, "supertorus", "normalize", "X1 V2 U1^2 G1")
    assert code == 0
    (entry,) = rep["normal_form"]
    assert entry["word"] == "U1^2 V2 G1 X1"


def test_normalize_theta_printed_as_expressions_print_numbers(capsys):
    # integral values without a fraction, others by repr, as the expression printer
    for theta, text in (("2", "2"), ("0.25", "0.25"), ("1e20", "1e+20"), ("-3", "-3")):
        code, rep = run_json(capsys, "supertorus", "normalize", "V1 U1", f"--theta={theta}")
        assert code == 0
        assert rep["phase"] == f"exp(-2*pi*i*{text})"


@settings(max_examples=150, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
def test_normalize_any_float_theta_exits_cleanly(theta):
    # a non-finite theta is a usage error: exit 2, one line, no traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["supertorus", "normalize", "V1 U1", f"--theta={theta!r}"])
    assert "Traceback" not in err.getvalue()
    if math.isfinite(theta):
        assert code == 0
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().splitlines() == [f"superstar: theta must be finite, got {theta!r}"]


def test_normalize_garbage_exits_2(capsys):
    code, out, err = run_cli(capsys, "supertorus", "normalize", "U1 W2")
    assert code == 2
    assert err


# ---------------------------------------------------------------------------
# gw / qgroup
# ---------------------------------------------------------------------------


def test_gw_verify_reports_honest_failure(capsys):
    code, rep = run_json(capsys, "gw", "verify")
    assert code == 1
    assert rep["passed"] is False
    assert rep["derived_passed"] is True
    assert rep["target_max_rel_dev"] > 1e-3
    assert rep["derived_max_rel_dev"] <= 1e-8
    assert "analysis" in rep


def test_qgroup_pentagon(capsys):
    code, rep = run_json(capsys, "qgroup", "pentagon", "--t-samples", "3",
                         "--seed", "2")
    assert code == 0
    assert rep["passed"] is True
    assert rep["max_deviation"] <= 1e-8
    assert rep["superunitarity"]["modular_weight"] == 0.0


def test_qgroup_pentagon_at_m_zero(capsys):
    # no even coordinates: every Gaussian block of a leg split is empty
    code, rep = run_json(capsys, "qgroup", "pentagon", "--m", "0", "--n", "2")
    assert code == 0
    assert rep["passed"] is True
    assert len(rep["pentagon"]) == 5


def test_qgroup_pentagon_zero_samples_exits_2(capsys):
    # zero sampled triples would pass on nothing
    code, out, err = run_cli(capsys, "qgroup", "pentagon", "--t-samples", "0")
    assert code == 2
    assert out == ""
    assert "t_samples" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_json_out_writes_same_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "eps", "--n", "3",
                           "--json-out", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_seed_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv("SUPERSTAR_SEED", "41")
    args = build_parser().parse_args(["verify", "eps"])
    assert args.seed == 41
    monkeypatch.setenv("SUPERSTAR_SEED", "junk")
    args = build_parser().parse_args(["verify", "eps"])
    assert args.seed == 0


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
