"""Command-line interface: subcommands, exit codes, deterministic JSON."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from superstar import cli
from superstar.cli import build_parser, main
from superstar.verify import run_suite


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


def test_star_divergent_product_exits_2_on_one_line(capsys):
    code, out, err = run_cli(capsys, "star", "exp(x1^2) star x1")
    assert (code, out) == (2, "")
    assert "neither integrable nor Fresnel" in err and "A_ut=" not in err
    assert len(err.splitlines()) == 1 and len(err) < 200


@pytest.mark.parametrize("expression", [
    "exp(-x1^2 - 0.5*x2^2 + 0.25i*x1*x2) * (1 + 2*xi1) star exp(-(x1^2 + x2^2)) * xi1",
    "exp(-1.5*x1^2 - x2^2 + x1 - 2i*x2 + 0.3) star (x1^2 - x2)",
    "x1 star exp(-x1*x2 - (0.5*x1^2 - 1i*x1) - 2*x2^2*0.25) * (xi1 - 3)",
])
def test_star_printed_expression_gives_the_same_result(capsys, expression):
    # the echo prints to itself, so the whole output, result included, repeats
    flags = ("star", "--theta", "0.7", "--m", "1", "--n", "1", "--")
    code, first, _ = run_cli(capsys, *flags, expression)
    assert code == 0
    assert run_cli(capsys, *flags, json.loads(first)["expression"]) == (0, first, "")


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


@pytest.mark.parametrize("expression", ["-x1", "-(x1)", "-2*x1*x2", "-1e-3*x1"])
def test_star_expression_with_leading_minus(capsys, expression):
    # a single-dash argument that is no option is the expression, as after "--"
    code, out, err = run_cli(capsys, "star", expression)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, "star", "--", expression)
    assert json.loads(out)["result"]
    code, out, _ = run_cli(capsys, "star", "--theta", "-1e-3", expression)
    assert code == 0 and json.loads(out)["context"]["theta"] == -0.001
    with pytest.raises(SystemExit) as info:
        main(["star", "-h"])
    assert info.value.code == 0
    assert "usage: superstar star" in capsys.readouterr().out


@pytest.mark.parametrize("expression, column", [("1e400", 1), ("exp(-x1*x1) * 1e400", 15)])
def test_star_non_finite_literal_exits_2(capsys, expression, column):
    # the tokenizer rejects the literal, with its position
    code, out, err = run_cli(capsys, "star", "--theta", "1", "--m", "1", expression)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"superstar: expression error: number 1e400 is not a finite float "
        f"(line 1, column {column})"]


def test_star_non_finite_result_exits_2(capsys):
    # every literal is finite, but the product overflows: no Infinity on stdout.
    # A factor 0 empties the whole product, so a check of the root alone would
    # pass the last two; each node is checked, and the error points at the overflow.
    for expression, column in (("x1*1e308*1e308", 9), ("x1*1e308*1e308*0", 9),
                               ("0*(x1*1e308*1e308)", 12)):
        code, out, err = run_cli(capsys, "star", "--theta", "1", "--m", "1", expression)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "superstar: expression error: the value here is not a finite float "
            f"(line 1, column {column})"]


def test_emit_writes_non_finite_floats_as_null(capsys):
    # a failed check may carry a NaN or infinite deviation anywhere in its
    # report; the JSON never holds Infinity or NaN
    cli._emit({"x": math.inf, "y": [1.5, math.nan, {"z": -math.inf}]}, None)
    assert json.loads(capsys.readouterr().out) == {"x": None, "y": [1.5, None, {"z": None}]}


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


def test_verify_table_on_stderr_beside_the_report(capsys):
    code, out, err = run_cli(capsys, "verify", "suite=eps")
    assert code == 0
    report = run_suite("eps")
    assert json.loads(out) == report
    lines = err.splitlines()
    assert lines[0].split() == ["PASS", "eps", f"({report['cases']}", "cases)"]
    for check, line in zip(report["checks"], lines[1:-1], strict=True):
        assert line.split()[:2] == ["ok", check["check"]]
    assert lines[-1].startswith(f"PASS: {report['cases']} cases in ")


def test_verify_failed_check_exits_1_with_report_and_fail_lines(capsys):
    # the superadjoint laws go through G^{-1}, so they miss 0 by rounding
    code, out, err = run_cli(capsys, "verify", "suite=hilbert", "--tol", "0")
    assert code == 1
    report = json.loads(out)
    assert len(report["checks"]) == 7
    failed = {c["check"] for c in report["checks"] if not c["passed"]}
    assert {"superadjoint-defining-relation", "superadjoint-involution",
            "superadjoint-graded-product-reversal"} <= failed
    fail_lines = {line.split()[1] for line in err.splitlines()
                  if line.split()[0] == "FAIL" and not line.startswith("FAIL")}
    assert fail_lines == failed
    assert err.splitlines()[0].startswith("FAIL  hilbert")
    assert err.splitlines()[-1].startswith("FAIL: ")


def test_verify_infinite_deviation_fails_with_parseable_report(capsys, monkeypatch):
    # JSON has no infinity: the deviation is written as null and the check
    # fails (exit 1), where it used to stop the report (exit 2, no stdout)
    from superstar import verify

    calls = []

    def first_infinite(f, g):
        calls.append(1)
        return math.inf if len(calls) == 1 else 0.0

    monkeypatch.setattr(verify, "sf_max_dev", first_infinite)
    code, out, err = run_cli(capsys, "verify", "suite=hilbert")
    assert code == 1
    (check,) = [c for c in json.loads(out)["checks"]
                if c["check"] == "fundamental-symmetry-square-sign"]
    assert (check["passed"], check["max_deviation"]) == (False, None)
    assert any(line.split()[:2] == ["FAIL", "fundamental-symmetry-square-sign"]
               and "null" in line for line in err.splitlines())


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
    target, derived = rep["checks"]
    assert (target["check"], target["passed"]) == ("target-coefficient-map", False)
    assert target["max_deviation"] > 1e-3
    assert (derived["check"], derived["passed"]) == ("derived-coefficient-map", True)
    assert derived["max_deviation"] <= 1e-8
    assert target["cases"] == derived["cases"] == len(rep["points"]) == 36
    assert "analysis" in rep


def test_nan_in_one_gw_point_fails_with_the_whole_report(capsys, monkeypatch):
    # the third action is the target-map action of the second point
    from superstar import gwaction

    original = gwaction.action_gw
    calls = []

    def third_is_nan(*args, **kwargs):
        calls.append(None)
        return math.nan if len(calls) == 3 else original(*args, **kwargs)

    monkeypatch.setattr(gwaction, "action_gw", third_is_nan)
    code, rep = run_json(capsys, "verify", "suite=gw")
    assert code == 1
    (target,) = [c for c in rep["checks"] if c["check"] == "target-coefficient-map-refuted"]
    assert target["passed"] is False
    assert target["points"][1]["rel_dev"] is None
    assert target["points"][0]["rel_dev"] is not None

    calls.clear()
    code, rep = run_json(capsys, "gw", "verify")
    assert code == 1
    assert rep["points"][1]["target"]["rel_dev"] is None
    assert rep["checks"][0]["max_deviation"] is None


def test_qgroup_pentagon(capsys):
    code, rep = run_json(capsys, "qgroup", "pentagon", "--t-samples", "3",
                         "--seed", "2")
    assert code == 0
    assert (rep["command"], rep["t_samples"], rep["seed"]) == ("qgroup pentagon", 3, 2)
    assert rep["passed"] is True
    pentagon, unitary = rep["checks"]
    assert pentagon["cases"] == 3 and pentagon["max_deviation"] <= 1e-8
    assert unitary["cases"] == 3 and unitary["passed"] is True


def test_qgroup_pentagon_at_m_zero(capsys):
    # no even coordinates: every Gaussian block of a leg split is empty
    code, rep = run_json(capsys, "qgroup", "pentagon", "--m", "0", "--n", "2")
    assert code == 0
    assert rep["passed"] is True
    assert rep["context"]["m"] == 0
    assert rep["checks"][0]["cases"] == len(rep["checks"][0]["samples"]) == 5


def test_qgroup_pentagon_zero_samples_exits_2(capsys):
    # zero sampled triples would pass on nothing
    code, out, err = run_cli(capsys, "qgroup", "pentagon", "--t-samples", "0")
    assert code == 2
    assert out == ""
    assert "t_samples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", [None, "1e-16"])
def test_qgroup_pentagon_judges_as_the_suite(capsys, tol):
    # the suite's own context and sample count, through the CLI; at 1e-16
    # both fail
    flags = [] if tol is None else ["--tol", tol]
    code, rep = run_json(capsys, "qgroup", "pentagon", "--m", "1", "--n", "2",
                         "--signature", "1,1", "--t-samples", "5", "--seed", "3",
                         *flags)
    suite = run_suite("qgroup", seed=3, tol=None if tol is None else float(tol))
    assert rep["checks"] == json.loads(json.dumps(suite["checks"]))
    assert (code, rep["passed"]) == ((0, True) if tol is None else (1, False))
    assert rep["passed"] is suite["passed"]


def test_gw_verify_judges_the_derived_map_as_the_suite(capsys):
    _, rep = run_json(capsys, "gw", "verify")
    (derived,) = [c for c in run_suite("gw")["checks"]
                  if c["check"] == "derived-coefficient-map"]
    assert rep["checks"][1] == json.loads(json.dumps(derived))


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_json_out_writes_same_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "eps", "--n", "3",
                           "--json-out", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_json_out_that_cannot_be_written_exits_2(tmp_path, capsys, where):
    path = str(tmp_path / "no" / "r.json" if where == "missing-directory" else tmp_path)
    code, out, err = run_cli(capsys, "verify", "eps", "--n", "2", "--json-out", path)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and repr(path) in err
    assert "Traceback" not in err


def test_seed_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv("SUPERSTAR_SEED", "41")
    args = build_parser().parse_args(["verify", "eps"])
    assert args.seed == 41
    # the flag wins
    assert build_parser().parse_args(["verify", "eps", "--seed", "5"]).seed == 5
    # a seed that is no integer >= 0 is a usage error, not seed 0
    monkeypatch.setenv("SUPERSTAR_SEED", "junk")
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["verify", "eps"])
    assert info.value.code == 2


@pytest.mark.parametrize("env, flags", [
    ("junk", []), ("-3", []), (None, ["--seed", "-1"]), (None, ["--seed", "x"])])
def test_seed_that_is_no_integer_at_least_zero_exits_2(monkeypatch, env, flags):
    if env is None:
        monkeypatch.delenv("SUPERSTAR_SEED", raising=False)
    else:
        monkeypatch.setenv("SUPERSTAR_SEED", env)
    code, out, err = _run_main(["verify", "eps", "--n", "2", *flags])
    assert (code, out) == (2, "")
    bad = env if env is not None else flags[1]
    assert f"got {bad!r}" in err and "Traceback" not in err


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# fuzz: random input never ends in a traceback or in invalid JSON
# ---------------------------------------------------------------------------

_good_atoms = st.sampled_from(
    ["0", "1", "2.5", ".5", "1e-3", "2i", "0.25i", "i", "x1", "x2", "x3", "x4", "xi1", "xi2",
     "xi3"]) | st.lists(
    st.sampled_from(["x1^2", "0.5*x1*x2", "2i*x2", "x1", "x3*x3", "0.25", "i*x1^2"]),
    min_size=1, max_size=3).map(lambda ms: "exp(-" + " - ".join(ms) + ")")
# out of the float range, near its edge, or out of the body
_bad_atoms = st.sampled_from(
    ["1e400", "1e308", "9e307", "1e160i", "1e-400", "x0", "y1", "exp(x9)", "exp(1e308*x2)",
     "exp(-1e300*x1*x1)", "exp(1000)"])
_atoms = st.one_of(_good_atoms, _good_atoms, _good_atoms, _bad_atoms)
_structured = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", " * ", " star "]), inner).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"),
        inner.map(lambda e: f"(-{e})")),
    max_leaves=5)
# mostly well-formed expressions, some free text
_expressions = st.one_of(_structured, _structured, _structured,
                         st.text(alphabet="x1i2*+-()^e.star ", max_size=16))
# mostly valid deformation parameters, some out of range or no number at all
_thetas = st.one_of(
    st.sampled_from(["1", "-0.7", "0.3", "-1e-3"]),
    st.sampled_from(["1", "-0.7", "0.3", "-1e-3", "1e-300", "1e300", "inf", "nan", "0"]),
    st.floats().map(repr))
_torus_words = st.lists(
    st.sampled_from(["U1", "V1", "U2^-1", "V2^2", "G1", "G2", "X1", "X2", "U1^0", "2",
                     "(1+2j)", "1e400", "nan", "W1", "U0", "G1^2"]),
    max_size=5).map(" ".join)


@st.composite
def _context_flags(draw):
    """--theta, --m, --n and, sometimes, --signature: valid or not."""
    m, n = draw(st.sampled_from([0, 1, 2, 2])), draw(st.integers(0, 3))
    flags = [f"--theta={draw(_thetas)}", "--m", str(m), "--n", str(n)]
    kind = draw(st.sampled_from(["none", "none", "valid", "any"]))
    if kind == "valid":
        p = draw(st.integers(0, n))
        flags += ["--signature", f"{p},{n - p}"]
    elif kind == "any":
        flags += ["--signature", draw(st.sampled_from(["3,1", "0,0", "1", "a,b", "1,1,1"]))]
    return flags


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


def _assert_clean(code, out, err):
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == "" and err


@settings(max_examples=150, deadline=None)
@given(_expressions, _context_flags())
def test_star_fuzz_exits_cleanly(expression, flags):
    # "--" lets an expression start with a minus sign
    _assert_clean(*_run_main(["star", *flags, "--", expression]))


@settings(max_examples=40, deadline=None)
@given(_torus_words, st.one_of(st.none(), _thetas))
def test_normalize_fuzz_exits_cleanly(word, theta):
    argv = ["supertorus", "normalize", word]
    if theta is not None:
        argv.append(f"--theta={theta}")
    _assert_clean(*_run_main(argv))
