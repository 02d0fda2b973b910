"""Verification-suite registry: dispatch, report schema, determinism."""

import json
import math

import numpy as np
import pytest

from superstar import verify
from superstar.grassmann import eps
from superstar.hilbert import GradedOperator
from superstar.verify import SUITE_NAMES, run_all, run_suite


def test_suite_names_are_sorted_and_end_with_all():
    assert SUITE_NAMES[-1] == "all"
    names = SUITE_NAMES[:-1]
    assert list(names) == sorted(names)
    assert set(names) == {"eps", "star", "hilbert", "heisenberg", "udf",
                          "torus", "qgroup", "gw"}


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_report_schema_and_json_safety():
    rep = run_suite("torus")
    json.dumps(rep)
    assert rep["suite"] == "torus"
    assert isinstance(rep["passed"], bool)
    assert rep["cases"] == sum(c["cases"] for c in rep["checks"])
    for c in rep["checks"]:
        assert set(c) >= {"check", "cases", "max_deviation", "tolerance",
                          "passed"}


def test_check_with_no_cases_does_not_pass():
    # a generator is read once: each item is a case, the worst is the max
    rec = verify._check("stream", (d for d in (0.25, 0.5, 0.0)), None, default=1.0)
    assert (rec["cases"], rec["max_deviation"], rec["tolerance"], rec["passed"]) == (
        3, 0.5, 1.0, True)
    assert verify._check("strict", [0.25, 0.5], 0.3, default=1.0)["passed"] is False
    empty = verify._check("empty", iter(()), None, default=1.0)
    assert (empty["cases"], empty["passed"]) == (0, False)
    # a NaN anywhere, or an infinity, is written as null and fails
    for bad in (math.nan, math.inf):
        for where in range(3):
            devs = [0.0, 0.1, 0.2]
            devs[where] = bad
            rec = verify._check("bad", iter(devs), None, default=1.0)
            assert (rec["cases"], rec["max_deviation"], rec["passed"]) == (3, None, False)


@pytest.mark.parametrize("mutant, red", [
    # the sign flipped whenever the left set is {1}
    (lambda I, J: -eps(I, J) if I == 1 else eps(I, J),
     ["graded-symmetry-on-disjoint-subsets", "disjoint-union-multiplicativity"]),
    # a flipped zero is still zero, so the overlap check needs its own fault
    (lambda I, J: eps(I, J) or 1, ["zero-on-overlapping-subsets"]),
], ids=["flipped-sign", "nonzero-on-overlap"])
def test_eps_checks_catch_a_wrong_sign(monkeypatch, mutant, red):
    monkeypatch.setattr(verify, "eps", mutant)
    rep = run_suite("eps", n=3)
    assert [c["check"] for c in rep["checks"] if not c["passed"]] == red
    assert all(c["max_deviation"] > 0 for c in rep["checks"] if c["check"] in red)


@pytest.mark.parametrize("miss", [1.0, math.nan])
def test_pentagon_record_fails_when_the_constant_legs_miss(monkeypatch, miss):
    # the first comparison of pentagon_check is the all-constant case
    from superstar import qgroup

    original = qgroup.sf_max_dev
    calls = []

    def first_misses(f, g):
        calls.append(None)
        return miss if len(calls) == 1 else original(f, g)

    monkeypatch.setattr(qgroup, "sf_max_dev", first_misses)
    rep = run_suite("qgroup", seed=0)
    (pentagon,) = [c for c in rep["checks"] if c["check"] == "pentagon-identity"]
    assert pentagon["cases"] == 5
    assert pentagon["max_deviation"] <= pentagon["tolerance"]
    assert pentagon["passed"] is False
    assert rep["passed"] is False


def test_superunitarity_record_counts_each_slice():
    rep = run_suite("qgroup", seed=0)
    (unitary,) = [c for c in rep["checks"] if c["check"] == "superunitarity"]
    assert unitary["cases"] == 3
    assert len(unitary["samples"]) == 3
    assert all(len(s["t"]) == 2 for s in unitary["samples"])
    assert unitary["max_deviation"] == max(s["deviation"] for s in unitary["samples"])
    assert unitary["passed"]


def test_nan_in_one_superunitarity_slice_fails_its_record(monkeypatch):
    # pentagon_check calls inner_l2 twice per superunitarity slice: the
    # third call is the second slice's left side
    from superstar import qgroup

    original = qgroup.inner_l2
    calls = []

    def third_is_nan(f, g):
        calls.append(None)
        return math.nan if len(calls) == 3 else original(f, g)

    monkeypatch.setattr(qgroup, "inner_l2", third_is_nan)
    rep = run_suite("qgroup", seed=0)
    (unitary,) = [c for c in rep["checks"] if c["check"] == "superunitarity"]
    assert unitary["cases"] == 3
    assert math.isnan(unitary["samples"][1]["deviation"])
    assert unitary["max_deviation"] is None
    assert unitary["passed"] is False
    assert rep["passed"] is False


def test_non_integrable_traciality_product_fails_its_case(monkeypatch):
    # the first traciality pair becomes 1 and 1, whose product has no
    # integral: that case must fail the record, not be skipped for a new draw
    from superstar.superfun import Superfunction

    original = verify.random_integrable_factor
    calls = []

    def first_pair_is_one(rng, ctx):
        calls.append(None)
        f = original(rng, ctx)
        return Superfunction.one(2 * ctx.m, ctx.n) if len(calls) <= 2 else f

    monkeypatch.setattr(verify, "random_integrable_factor", first_pair_is_one)
    rep = run_suite("star", seed=0)
    (trace,) = [c for c in rep["checks"] if c["check"] == "traciality-relative"]
    assert trace["cases"] == 100
    assert trace["max_deviation"] is None
    assert trace["passed"] is False
    assert rep["passed"] is False


def test_eps_universe_size_is_configurable():
    rep3 = run_suite("eps", n=3)
    rep4 = run_suite("eps", n=4)
    assert rep3["n"] == 3 and rep4["n"] == 4
    assert rep4["cases"] > rep3["cases"]
    assert rep3["passed"] and rep4["passed"]
    with pytest.raises(ValueError, match="universe"):
        run_suite("eps", n=11)


def test_reports_are_deterministic_for_fixed_seed():
    a = json.dumps(run_suite("hilbert", seed=9), sort_keys=True)
    b = json.dumps(run_suite("hilbert", seed=9), sort_keys=True)
    assert a == b


def test_seed_changes_the_samples_not_the_verdict():
    a = run_suite("qgroup", seed=1)
    b = run_suite("qgroup", seed=2)
    assert a["passed"] and b["passed"]
    sa = a["checks"][0]["samples"]
    sb = b["checks"][0]["samples"]
    assert sa != sb


def test_tolerance_override_is_applied():
    # --tol sets every tolerance of a suite, none keeps a floor of its own
    for suite in ("hilbert", "udf", "gw", "qgroup"):
        strict = run_suite(suite, tol=1e-16)
        assert [c["tolerance"] for c in strict["checks"]] == [1e-16] * len(strict["checks"])
        if suite == "hilbert":
            assert not strict["passed"]
        if suite == "udf":
            # the bridge judges its pairs at the record's tolerance too
            (bridge,) = [c for c in strict["checks"]
                         if c["check"] == "supertorus-generator-bridge"]
            assert bridge["matched"] is bridge["passed"] is False


def test_ledger_constants_embedded():
    eps_rep = run_suite("eps", n=2)
    assert eps_rep["ledger"]["sigma"] == -1
    hil = run_suite("hilbert")
    assert hil["ledger"]["sigma"] == -1
    qg = run_suite("qgroup")
    assert qg["context"]["dilation_weights"] == [1.0]


def test_run_all_merges_sorted_and_reflects_failures(monkeypatch):
    def fake(name, cases, passed):
        return lambda *, tol, seed: {"suite": name, "cases": cases,
                                     "passed": passed}

    monkeypatch.setattr(verify, "_SUITES", {"zeta": fake("zeta", 3, True),
                                            "alpha": fake("alpha", 4, False)})
    merged = run_all(seed=0)
    assert [s["suite"] for s in merged["suites"]] == ["alpha", "zeta"]
    assert merged["cases"] == 7
    assert merged["passed"] is False
    monkeypatch.undo()

    via_name = run_suite("eps", n=2)
    direct = run_all.__globals__["verify_eps"](n=2, tol=None, seed=0)
    assert via_name == direct


@pytest.mark.parametrize("seed", [35, 38, 43])
def test_hilbert_passes_where_entries_are_large_and_gram_well_conditioned(seed):
    # cond(G) up to ~1e5 and entries up to ~1e5: the absolute entry deviation
    # of the superadjoint laws exceeded its bound by rounding through G^{-1}
    rep = run_suite("hilbert", seed=seed)
    assert rep["passed"], [c for c in rep["checks"] if not c["passed"]]


def _superadjoint_flipping(flip):
    """superadjoint as in hilbert, with the sign of D's last entry flipped."""

    def adjoint(T, gram):
        G = np.asarray(gram, dtype=complex)
        D = np.diag([(-1.0) ** (T.degree * p) for p in T.parities])
        if flip:
            D[-1, -1] *= -1
        M = D @ G @ T.matrix @ np.linalg.inv(G)
        return GradedOperator(M.conj().T, T.parities, T.degree)

    return adjoint


@pytest.mark.parametrize("check", ["superadjoint-defining-relation",
                                   "superadjoint-involution",
                                   "superadjoint-graded-product-reversal"])
def test_superadjoint_backward_error_catches_one_flipped_sign(monkeypatch, check):
    verdicts = []
    for flip in (False, True):
        monkeypatch.setattr(verify, "superadjoint", _superadjoint_flipping(flip))
        (rec,) = [c for c in run_suite("hilbert", seed=0)["checks"] if c["check"] == check]
        verdicts.append(rec["passed"])
    assert verdicts == [True, False]


def test_nan_from_fundamental_symmetry_fails_its_checks(monkeypatch):
    # Python's max and min drop a NaN that follows a number; the checks
    # fed by J must fail on a NaN result, not pass on the numbers before it
    from superstar import hilbert

    original = hilbert.fundamental_symmetry
    broken = lambda f: original(f).scale(float("nan"))
    monkeypatch.setattr(hilbert, "fundamental_symmetry", broken)
    monkeypatch.setattr(verify, "fundamental_symmetry", broken)
    checks = {c["check"]: c for c in run_suite("hilbert", seed=0)["checks"]}
    for name in ("j-scalar-product-positivity", "fundamental-symmetry-square-sign",
                 "fundamental-symmetry-preserves-pairing"):
        assert checks[name]["passed"] is False, name
        assert checks[name]["max_deviation"] is None, name
    assert checks["j-scalar-product-positivity"]["min_value"] is None
