"""The benchmark's checkers on hand-computed cases, and on corrupted products.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import superstar.cli  # noqa: E402
import superstar.qgroup  # noqa: E402
import superstar.starprod  # noqa: E402
import superstar.udf  # noqa: E402
from superstar.exppoly import ExpPolyFunction  # noqa: E402
from superstar.starprod import DeformationContext, star  # noqa: E402
from superstar.superfun import Superfunction  # noqa: E402

Z2 = (0.0, 0.0)


def cli_star(expr: str, theta: float, m: int = 1, n: int = 0, sig=None) -> dict:
    argv = ["star", "--theta", repr(theta), "--m", str(m), "--n", str(n)]
    if sig:
        argv += ["--signature", f"{sig[0]},{sig[1]}"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert superstar.cli.main(argv + [expr]) == 0
    return checks.words_from_cli(json.loads(buf.getvalue()))


def scaled(got: dict, word: int, index: int, factor: complex) -> dict:
    """A copy of ``got`` with one coefficient multiplied by ``factor``."""
    out = {w: list(terms) for w, terms in got.items()}
    c, alpha, A, b = out[word][index]
    out[word][index] = (c * factor, alpha, A, b)
    return out


# ---------------------------------------------------------------------------
# even sector


def test_moyal_x1_star_x2_by_hand():
    theta = 0.8
    want, mag = checks.super_product({0: {((1, 0), Z2): 1}}, {0: {((0, 1), Z2): 1}},
                                     1, theta, ())
    assert want == {0: {((1, 1), Z2): 1, ((0, 0), Z2): -0.4j}}
    got = cli_star("x1 star x2", theta)
    assert checks.compare_coefficients(got, want, mag)[0]
    const = next(i for i, t in enumerate(got[0]) if t[1] == (0, 0))
    assert not checks.compare_coefficients(scaled(got, 0, const, 1.001), want, mag)[0]


def test_moyal_second_order_constant_by_hand():
    # x1^2 * x2^2 = x1^2 x2^2 - 2 i theta x1 x2 - theta^2 / 2
    theta = 1.0
    want, mag = checks.super_product({0: {((2, 0), Z2): 1}}, {0: {((0, 2), Z2): 1}},
                                     1, theta, ())
    hand = {((2, 2), Z2): 1, ((1, 1), Z2): -2j * theta, ((0, 0), Z2): -theta ** 2 / 2}
    assert set(want[0]) == set(hand)
    for key, c in hand.items():
        assert want[0][key] == pytest.approx(c, abs=1e-15)
    got = cli_star("(x1*x1) star (x2*x2)", theta)
    assert checks.compare_coefficients(got, want, mag)[0]
    # a product that lost its constant, as the relative chop does at small theta
    dropped = {0: [t for t in got[0] if t[1] != (0, 0)]}
    assert not checks.compare_coefficients(dropped, want, mag)[0]


def test_small_theta_constant_is_still_required():
    theta = 1e-8
    want, mag = checks.super_product({0: {((2, 0), Z2): 1}}, {0: {((0, 2), Z2): 1}},
                                     1, theta, ())
    assert want[0][((0, 0), Z2)] == pytest.approx(-5e-17, rel=1e-12)
    complete = {0: [(c, a, np.zeros((2, 2), complex), np.zeros(2, complex))
                    for (a, _), c in want[0].items()]}
    assert checks.compare_coefficients(complete, want, mag)[0]
    dropped = {0: [t for t in complete[0] if t[1] != (0, 0)]}
    assert not checks.compare_coefficients(dropped, want, mag)[0]


def test_plane_wave_phase_by_hand():
    # e^{i x1} * e^{i x2} = e^{i theta / 2} e^{i (x1 + x2)}
    theta = 0.6
    want, mag = checks.super_product({0: {((0, 0), (1.0, 0.0)): 1}},
                                     {0: {((0, 0), (0.0, 1.0)): 1}}, 1, theta, ())
    assert want[0][((0, 0), (1.0, 1.0))] == pytest.approx(np.exp(0.3j), abs=1e-15)
    got = cli_star("exp(i*x1) star exp(i*x2)", theta)
    assert checks.compare_coefficients(got, want, mag)[0]
    assert not checks.compare_coefficients(scaled(got, 0, 0, 1j), want, mag)[0]


def test_plane_wave_times_polynomial_by_hand():
    # e^{i k x1} * x2 = (x2 + theta k / 2) e^{i k x1}
    theta, k = 0.7, 1.5
    want, _ = checks.super_product({0: {((0, 0), (k, 0.0)): 1}},
                                   {0: {((0, 1), Z2): 1}}, 1, theta, ())
    assert want[0] == pytest.approx({((0, 1), (k, 0.0)): 1,
                                     ((0, 0), (k, 0.0)): theta * k / 2})


# ---------------------------------------------------------------------------
# odd sector


def odd_product(theta, n, sig, a: dict, b: dict):
    ctx = DeformationContext(theta, 0, n, sig)
    f, g = (Superfunction(0, n, {w: ExpPolyFunction.const(0, c) for w, c in x.items()})
            for x in (a, b))
    out = star(ctx, f, g)
    got = {w: checks.terms_from_json(fn.to_json_dict()) for w, fn in out.terms.items()}
    F, G = ({w: {((), ()): c} for w, c in x.items()} for x in (a, b))
    want, mag = checks.super_product(F, G, 0, theta, ctx.eta)
    return got, want, mag


@pytest.mark.parametrize("eta", [1, -1])
def test_clifford_square_by_hand(eta):
    theta = 0.9
    assert checks.clifford_factor(1, 1, theta, (eta,)) == pytest.approx(0.45j * eta)
    sig = (1, 0) if eta > 0 else (0, 1)
    got, want, mag = odd_product(theta, 1, sig, {1: 1}, {1: 1})
    assert want == {0: {((), ()): pytest.approx(0.45j * eta)}}
    assert checks.compare_coefficients(got, want, mag)[0]
    assert not checks.compare_coefficients(scaled(got, 0, 0, -1), want, mag)[0]


def test_koszul_sign_by_hand():
    # xi1 xi2 * xi1 = -xi1 xi1 xi2 = -c_1 xi2
    theta = 1.2
    assert checks.koszul_sign(0b11, 0b01) == -1
    assert checks.koszul_sign(0b01, 0b10) == 1
    assert checks.koszul_sign(0b10, 0b01) == -1
    got, want, mag = odd_product(theta, 2, (2, 0), {0b11: 1}, {0b01: 1})
    assert want == {0b10: {((), ()): pytest.approx(-0.6j)}}
    assert checks.compare_coefficients(got, want, mag)[0]
    assert not checks.compare_coefficients(scaled(got, 0b10, 0, -1), want, mag)[0]


def test_dense_odd_product_and_a_misplaced_word():
    rng = np.random.default_rng(3)
    a, b = ({w: complex(*rng.normal(size=2)) for w in range(8)} for _ in range(2))
    got, want, mag = odd_product(0.7, 3, (2, 1), a, b)
    assert checks.compare_coefficients(got, want, mag)[0]
    moved = dict(got)
    moved[0b111], moved[0b011] = got[0b011], got[0b111]
    assert not checks.compare_coefficients(moved, want, mag)[0]


# ---------------------------------------------------------------------------
# Gaussian class


def test_gaussian_integral_by_hand():
    one = np.array([[-1.0 + 0j]])
    assert checks.gaussian_integral(1, (0,), one, np.zeros(1)) == pytest.approx(math.sqrt(math.pi))
    assert checks.gaussian_integral(1, (2,), one, np.zeros(1)) == pytest.approx(math.sqrt(math.pi) / 2)
    two = -np.eye(2, dtype=complex)
    assert checks.gaussian_integral(1, (0, 0), two, np.array([1.0, 0.0])) == \
        pytest.approx(math.pi * math.exp(0.25))


def test_gaussian_integral_against_quadrature():
    A = np.array([[-0.7 + 0.3j]])
    b = np.array([0.4 - 0.2j])
    x = np.linspace(-14, 14, 40001)
    f = x ** 3 * np.exp(A[0, 0] * x ** 2 + b[0] * x)
    numeric = np.sum(f) * (x[1] - x[0])
    assert checks.gaussian_integral(1, (3,), A, b) == pytest.approx(numeric, rel=1e-10)


GAUSS_F = "exp(-0.6*x1^2 - 0.4*x2^2 + 0.1*x1*x2 + 0.2i*x1) * ((1 + 0.5i) + (0.3 - 0.2i)*x1*x2)"
GAUSS_G = "exp(-0.5*x1^2 - 0.7*x2^2 + 0.3*x2) * ((0.8 - 0.1i)*x1 + (0 + 1i)*x2*x2)"


def factor_terms(expr: str) -> list:
    """The factor as terms, through the pointwise product (no deformation)."""
    return cli_star(f"({expr}) * 1", 1.0)[0]


def test_traciality_accepts_the_product_and_rejects_a_corrupted_one():
    F, G = factor_terms(GAUSS_F), factor_terms(GAUSS_G)
    P = cli_star(f"({GAUSS_F}) star ({GAUSS_G})", 0.9)[0]
    ok, dev = checks.check_traciality(P, F, G)
    assert ok, dev
    assert not checks.check_traciality(scaled({0: P}, 0, 0, 1.01)[0], F, G)[0]


def test_commutator_accepts_the_product_and_rejects_a_corrupted_one():
    theta = 1.1
    F = factor_terms(GAUSS_F)
    pts = np.random.default_rng(0).uniform(-1.5, 1.5, size=(24, 2))
    for mu, x in ((0, "x1"), (1, "x2")):
        C = cli_star(f"{x} star ({GAUSS_F}) - ({GAUSS_F}) star {x}", theta)[0]
        ok, dev = checks.check_commutator(C, F, mu, 1, theta, pts)
        assert ok, dev
        assert not checks.check_commutator(scaled({0: C}, 0, 0, 1.01)[0], F, mu, 1,
                                           theta, pts)[0]


def test_commutator_by_hand():
    # x1 * x2 - x2 * x1 = -i theta: F = x2, (omega grad F)_1 = dF/dx2 = 1
    theta = 0.5
    F = [(1 + 0j, (0, 1), np.zeros((2, 2), complex), np.zeros(2, complex))]
    C = [(-0.5j, (0, 0), np.zeros((2, 2), complex), np.zeros(2, complex))]
    pts = np.zeros((1, 2))
    assert checks.check_commutator(C, F, 0, 1, theta, pts)[0]
    assert not checks.check_commutator([(0.5j, *C[0][1:])], F, 0, 1, theta, pts)[0]


# ---------------------------------------------------------------------------
# the verification report


def test_eps_case_counts_by_enumeration():
    for n in range(5):
        size = 1 << n
        overlap = sum(1 for i in range(size) for j in range(size) if i & j)
        triples = sum(1 for i in range(size) for j in range(size) for k in range(size)
                      if not (i & j or i & k or j & k))
        want = checks.eps_case_counts(n)
        assert want["zero-on-overlapping-subsets"] == overlap
        assert want["graded-symmetry-on-disjoint-subsets"] == size * size - overlap
        assert want["disjoint-union-multiplicativity"] == triples


def synthetic_report() -> dict:
    def check(name, cases=1, passed=True):
        return {"check": name, "cases": cases, "passed": passed}

    suites = []
    for name in checks.SUITES:
        if name == "eps":
            cs = [check(k, v) for k, v in checks.eps_case_counts(6).items()]
        elif name == "gw":
            cs = [check("target-coefficient-map-refuted", 36)]
        else:
            cs = [check("identity")]
        suites.append({"suite": name, "passed": True, "checks": cs,
                       "cases": sum(c["cases"] for c in cs)})
    suites[5]["contexts"] = [{"theta": -0.8, "signature": [1, 1],
                              "ledger": {"sigma": -1, "c_plus": [[0, -0.4], [0, 0.4]]}}]
    return {"suite": "all", "passed": True, "suites": suites,
            "cases": sum(s["cases"] for s in suites)}


def test_report_checker_accepts_a_consistent_report():
    assert checks.check_report(synthetic_report()) == (10, 0, [])


@pytest.mark.parametrize("corrupt", [
    lambda r: r["suites"][0]["checks"][2].update(cases=4 ** 6 - 1),
    lambda r: r["suites"][1]["checks"][0].update(passed=False),
    lambda r: r["suites"][5]["contexts"][0]["ledger"].update(c_plus=[[0, 0.4], [0, 0.4]]),
    lambda r: r["suites"][5]["contexts"][0]["ledger"].update(sigma=1),
    lambda r: r["suites"].pop(3),
    lambda r: r.update(cases=0),
])
def test_report_checker_rejects_a_corrupted_report(corrupt):
    report = synthetic_report()
    corrupt(report)
    assert checks.check_report(report)[2]


def test_a_failed_check_counts_as_failed():
    report = synthetic_report()
    report["suites"][2]["checks"][0]["passed"] = False
    report["suites"][2]["passed"] = False
    report["passed"] = False
    assert checks.check_report(report) == (10, 1, [])


# ---------------------------------------------------------------------------
# tracing


def test_tracer_patches_every_importer_and_restores():
    orig = superstar.starprod.star_general
    tracer = tracing.Tracer()
    tracer.install_function(superstar.starprod, "star_general", "starprod.star_general")
    try:
        for mod in (superstar.starprod, superstar.udf, superstar.qgroup):
            assert mod.star_general is not orig
            assert mod.star_general.__wrapped__ is orig
        ctx = DeformationContext(1.0, 1, 0)
        x = Superfunction.coordinate(2, 0, 0)
        star(ctx, x, x)
    finally:
        tracer.uninstall()
    for mod in (superstar.starprod, superstar.udf, superstar.qgroup):
        assert mod.star_general is orig
    assert tracer.layers["starprod.star_general"].calls == 1


def test_self_time_excludes_wrapped_children_and_recursion_counts_once():
    tracer = tracing.Tracer()

    def spin(seconds):
        from time import perf_counter
        t0 = perf_counter()
        while perf_counter() - t0 < seconds:
            pass

    inner = tracer.wrap("inner", lambda: spin(0.02))

    def outer_body(depth):
        spin(0.01)
        inner()
        if depth:
            outer(depth - 1)

    outer = tracer.wrap("outer", outer_body)
    outer(1)
    o, i = tracer.layers["outer"], tracer.layers["inner"]
    assert (o.calls, i.calls) == (2, 2)
    assert o.s == pytest.approx(0.06, rel=0.5)
    assert o.self_s == pytest.approx(0.02, rel=0.5)
    assert o.self_s + i.s <= o.s * 1.01


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "products_per_s", "cli_star_s"}
    assert [w["name"] for w in spec["workloads"]] == ["products", "report"]
