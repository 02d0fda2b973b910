"""The benchmark's workloads: inputs from the seed, one timed round, checks.

Each workload has ``setup(seed)`` (import the program, build every context
with its ledger and generate the inputs), ``run(state)`` (one round of
operations, the only timed part) and ``check(state, outputs)`` returning
(operations attempted, operations failed, problems).  A problem means a wrong
output that the program did not report as a failure, and makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import superstar.cli
import superstar.verify
from superstar.gwaction import default_grid, gw_context
from superstar.starprod import DeformationContext, context_signed_theta

import checks

OUT_DIR = Path(".bench_out")


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _built(ctx: DeformationContext) -> DeformationContext:
    ctx.ledger  # noqa: B018 - the ledger is computed at first use
    return ctx


# ---------------------------------------------------------------------------
# report: the full verification report


# The contexts the suites build (star pool, udf, heisenberg, eps/hilbert
# ledger, gw grid); qgroup's contexts depend on its sampled t and are built
# inside the pass.
def _report_contexts() -> list[DeformationContext]:
    ctxs = [
        DeformationContext(0.7, 1, 1, (1, 0)),
        DeformationContext(0.9, 1, 2, (1, 1)),
        DeformationContext(1.3, 2, 0, (0, 0)),
        DeformationContext(0.5, 1, 3, (2, 1)),
        DeformationContext(1.1, 2, 2, (0, 2)),
        context_signed_theta(-0.8, 1, 2, (2, 0)),
        DeformationContext(0.7, 1, 2, (1, 1)),
        DeformationContext(0.7, 1, 2),
        DeformationContext(1.0, 1, 1, (1, 0)),
    ]
    ctxs += [gw_context(theta) for theta in sorted({p.theta for p in default_grid()})]
    return ctxs


# Suites cheap enough to run a second time in every run, to check that the
# same seed gives the same bytes.
_REPEATED_SUITES = ("eps", "hilbert", "qgroup", "torus")


def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# The report runs at one fixed seed whatever the benchmark's seed.  Its work
# depends on the seed through the random factors its suites draw: at seeds
# 0 and 11-15 one pass took 56 to 90 s on a 2-core machine, a spread no
# bound could hold.  At a fixed seed the work is the same in every run.
REPORT_SEED = 0


def report_setup(seed: int) -> dict:
    return {"seed": REPORT_SEED, "contexts": [_built(c) for c in _report_contexts()]}


def report_run(state: dict) -> list:
    report = superstar.verify.run_all(seed=state["seed"])
    return [(report, _dump(report))]


def report_check(state: dict, outputs: list) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    seed = state["seed"]
    for report, text in outputs:
        a, f, p = checks.check_report(report)
        attempted, failed = attempted + a, failed + f
        problems += p
        for suite in report["suites"]:
            if suite["suite"] in _REPEATED_SUITES:
                again = superstar.verify.run_suite(suite["suite"], seed=seed)
                if _dump(again) != _dump(suite):
                    problems.append(f"{suite['suite']}: a second run at seed {seed} "
                                    "gave different JSON")
        digest = hashlib.sha256(text.encode()).hexdigest()
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"report-seed{seed}.sha256"
        if path.exists() and path.read_text().strip() != digest:
            problems.append(f"report at seed {seed} differs from an earlier run's")
        path.write_text(digest + "\n")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# products: dense odd-sector products and wide even-sector products, all
# through the CLI entry point


def _num(v: float) -> str:
    return f"{abs(v):.6g}"


def _coef(rng) -> complex:
    re, im = (float(f"{x:.4g}") for x in rng.normal(size=2))
    return complex(re, im)


def _coef_text(c: complex) -> str:
    re = ("-" if c.real < 0 else "") + _num(c.real)
    im = (" - " if c.imag < 0 else " + ") + _num(c.imag) + "i"
    return f"({re}{im})"


def _mono_text(alpha) -> str:
    return "*".join(f"x{i + 1}" for i, a in enumerate(alpha) for _ in range(a))


def _random_poly(rng, shape, d: int, degrees) -> dict:
    """{alpha: c}: one monomial of each total degree listed.

    The monomials come from ``shape``, a generator that does not depend on
    the seed, and only the coefficients from ``rng``: which axes a monomial
    uses decides how many terms a product makes, so this fixes the work a
    product does, whatever the seed.
    """
    poly: dict = {}
    for deg in degrees:
        while True:
            alpha = [0] * d
            for _ in range(deg):
                alpha[int(shape.integers(0, d))] += 1
            if tuple(alpha) not in poly:
                break
        poly[tuple(alpha)] = _coef(rng)
    return poly


def _poly_text(poly: dict) -> str:
    parts = [_coef_text(c) + ("*" + _mono_text(a) if any(a) else "")
             for a, c in sorted(poly.items())]
    return "(" + " + ".join(parts) + ")"


def _signed(parts: list[tuple[float, str]]) -> str:
    out = ""
    for v, mono in parts:
        if v == 0:
            continue
        sign = "-" if v < 0 else ("+" if out else "")
        out += (f" {sign} " if out else sign) + _num(v) + mono
    return out


def _random_gaussian(rng, d: int):
    """exp(x^T A x + b.x) as (text, A, b), Re(A) negative definite."""
    L = rng.normal(size=(d, d)) * 0.3
    S = rng.normal(size=(d, d)) * 0.15
    A = -(L @ L.T + 0.4 * np.eye(d)) + 1j * (S + S.T)
    b = 0.5 * (rng.normal(size=d) + 1j * rng.normal(size=d))
    parts: list[tuple[float, str]] = []
    A_exact = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(i, d):
            mono = f"*x{i + 1}^2" if i == j else f"*x{i + 1}*x{j + 1}"
            v = A[i, j] if i == j else 2 * A[i, j]
            re, im = float(f"{v.real:.4g}"), float(f"{v.imag:.4g}")
            parts += [(re, mono), (im, "i" + mono)]
            A_exact[i, j] += complex(re, im) if i == j else complex(re, im) / 2
            if i != j:
                A_exact[j, i] += complex(re, im) / 2
    b_exact = np.zeros(d, dtype=complex)
    for i in range(d):
        re, im = float(f"{b[i].real:.4g}"), float(f"{b[i].imag:.4g}")
        parts += [(re, f"*x{i + 1}"), (im, f"i*x{i + 1}")]
        b_exact[i] = complex(re, im)
    return "exp(" + _signed(parts) + ")", A_exact, b_exact


def _gaussian_factor(rng, shape, d: int, degrees_per_exponent):
    """sum_k exp(Q_k) P_k: (text, [(c, alpha, A, b)])."""
    texts, terms = [], []
    for degrees in degrees_per_exponent:
        gtext, A, b = _random_gaussian(rng, d)
        poly = _random_poly(rng, shape, d, degrees)
        texts.append(f"{gtext} * {_poly_text(poly)}")
        terms += [(c, a, A, b) for a, c in poly.items()]
    return " + ".join(texts), terms


def _even(poly: dict, d: int) -> dict:
    return {(a, (0.0,) * d): c for a, c in poly.items()}


def _random_waves(rng, d: int, count: int):
    """sum c exp(i k.x): (text, {(0, k): c})."""
    texts, even = [], {}
    for _ in range(count):
        k = tuple(float(f"{x:.3g}") for x in rng.uniform(-1.5, 1.5, size=d))
        c = _coef(rng)
        expo = _signed([(kj, f"i*x{j + 1}") for j, kj in enumerate(k)])
        texts.append(f"{_coef_text(c)}*exp({expo})")
        even[((0,) * d, k)] = even.get(((0,) * d, k), 0j) + c
    return " + ".join(texts), even


def _odd_text(word: int) -> str:
    return "".join(f"*xi{a + 1}" for a in range(word.bit_length()) if word >> a & 1)


def _super_text(parts: dict) -> str:
    """{word: even text} -> text of sum_I f_I xi^I."""
    out = []
    for word, text in sorted(parts.items()):
        out.append(f"({text}){_odd_text(word)}")
    return " + ".join(out)


def _op(kind: str, expr: str, theta: float, m: int, n: int = 0, sig=None, **data) -> dict:
    """One ``superstar star`` call on R^{2m|n} with its checking data."""
    argv = ["star", "--theta", repr(theta), "--m", str(m), "--n", str(n)]
    if sig is not None:
        argv += ["--signature", f"{sig[0]},{sig[1]}"]
    p, q = sig if sig is not None else (n, 0)
    return {"kind": kind, "argv": argv + [expr], "context": (theta, m, n, (p, q)),
            "theta": theta, "m": m, "eta": (1,) * p + (-1,) * q, **data}


# Products at theta = 1e-8 on fixed inputs.  The first three have a
# second-order term of relative size ~theta^2, which the engine's relative
# 1e-14 chop after every normalized product drops (starprod.star_general), so
# they fail in every round; the last two are first order and pass.
SMALL_THETA = 1e-8
SMALL_THETA_PRODUCTS = (
    ("(x1*x1) star (x2*x2)", 1, {(2, 0): 1}, {(0, 2): 1}),
    ("(x1*x1*x1) star (x2*x2)", 1, {(3, 0): 1}, {(0, 2): 1}),
    ("(x1*x2) star (x3*x4)", 2, {(1, 1, 0, 0): 1}, {(0, 0, 1, 1): 1}),
    ("x1 star x2", 1, {(1, 0): 1}, {(0, 1): 1}),
    ("(x1*x1) star (x2 + x1*x2)", 1, {(2, 0): 1}, {(0, 1): 1, (1, 1): 1}),
)
SMALL_THETA_FAULTS = 3


# Dense products where the odd sector does nearly all the work: every odd
# word present with a constant coefficient, (m, n, odd signature).  At m = 0
# there is no Gaussian integral, at m = 1 one trivial integral per word pair.
# n = 6 is left out: one product takes 8 s on R^{0|6} and 12 s on R^{2|6} on
# a 2-core machine, as long as all the rest of a round.
ODD_SHAPES = ((0, 4, (2, 2)), (1, 4, (3, 1)), (0, 5, (3, 2)), (1, 5, (2, 3)))


# Drawn so that the commutator at m = 2 takes the slow path (2.0 million
# Python calls, against 0.24 to 0.5 million on inputs that miss it), as it did
# at half of the seeds: the waste stays in view, and a fix of it shows.
COMMUTATOR_SALT = 6


def products_setup(seed: int) -> dict:
    rng = _rng(seed, 2)
    shape = _rng(0, 3)  # the monomials, the same for every seed
    ops = []

    def theta() -> float:
        return float(f"{rng.uniform(0.5, 1.5):.4g}")

    # dense odd products, checked by the closed Clifford rule
    for m, n, sig in ODD_SHAPES:
        th = theta()
        zero = ((0,) * (2 * m), (0.0,) * (2 * m))
        F, G = ({w: _coef(rng) for w in range(1 << n)} for _ in range(2))
        text = [" + ".join(_coef_text(c) + _odd_text(w) for w, c in P.items())
                for P in (F, G)]
        ops.append(_op("coefficients", f"({text[0]}) star ({text[1]})", th, m, n, sig,
                       F={w: {zero: c} for w, c in F.items()},
                       G={w: {zero: c} for w, c in G.items()}))

    # Wide Gaussian products, checked by traciality.  The factors list the
    # polynomial degrees on each exponent: the cost of a Gaussian product
    # grows steeply with degree, most at m = 2.
    for m, fdeg, gdeg in ((1, ((0, 2, 4), (1, 3)), ((0, 1, 3), (2,))),
                          (2, ((0, 1, 2),), ((0, 2), (1,)))):
        th = theta()
        ftext, fterms = _gaussian_factor(rng, shape, 2 * m, fdeg)
        gtext, gterms = _gaussian_factor(rng, shape, 2 * m, gdeg)
        ops.append(_op("trace", f"({ftext}) star ({gtext})", th, m, F=fterms, G=gterms))
    # Commutators with a coordinate, checked pointwise against the gradient,
    # on fixed inputs, the same for every seed: the work of F * x_mu changes
    # with the values of F (at m = 2 by up to 25 times from seed to seed),
    # as rounding decides which entries of the inverted Gaussian block come
    # out exactly zero in exppoly.ep_integrate_partial.
    fixed = _rng(0, COMMUTATOR_SALT)
    for m, mu in ((1, 0), (2, 2)):
        th = float(f"{fixed.uniform(0.5, 1.5):.4g}")
        ftext, fterms = _gaussian_factor(fixed, shape, 2 * m, ((0, 1, 2, 3, 4), (0, 2, 4)))
        x = f"x{mu + 1}"
        ops.append(_op("commutator", f"{x} star ({ftext}) - ({ftext}) star {x}", th, m,
                       F=fterms, mu=mu, points=rng.uniform(-1.5, 1.5, size=(24, 2 * m))))
    # polynomial and plane-wave products, checked coefficient by coefficient
    sig = (1, 1)
    th = theta()
    F = {w: _random_poly(rng, shape, 2, (0, 1, 2, 3, 4)) for w in (0, 1, 3)}
    G = {w: _random_poly(rng, shape, 2, (0, 1, 2, 3, 4)) for w in (0, 2, 3)}
    text = [_super_text({w: _poly_text(p) for w, p in P.items()}) for P in (F, G)]
    ops.append(_op("coefficients", f"({text[0]}) star ({text[1]})", th, 1, 2, sig,
                   F={w: _even(p, 2) for w, p in F.items()},
                   G={w: _even(p, 2) for w, p in G.items()}))
    th = theta()
    f, g = (_random_poly(rng, shape, 4, (0, 1, 1, 2, 2, 3, 4)) for _ in range(2))
    ops.append(_op("coefficients", f"{_poly_text(f)} star {_poly_text(g)}", th, 2,
                   F={0: _even(f, 4)}, G={0: _even(g, 4)}))
    sig = (0, 1)
    th = theta()
    (w0, e0), (w1, e1), (w2, e2) = (_random_waves(rng, 2, 3) for _ in range(3))
    ops.append(_op("coefficients", f"({_super_text({0: w0, 1: w1})}) star ({w2})", th, 1, 1, sig,
                   F={0: e0, 1: e1}, G={0: e2}))
    th = theta()
    wtext, waves = _random_waves(rng, 4, 3)
    g = _random_poly(rng, shape, 4, (0, 1, 2, 2, 3))
    ops.append(_op("coefficients", f"({wtext}) star {_poly_text(g)}", th, 2,
                   F={0: waves}, G={0: _even(g, 4)}))
    for i, (expr, m, f, g) in enumerate(SMALL_THETA_PRODUCTS):
        ops.append(_op("coefficients", expr, SMALL_THETA, m, known_fault=i < SMALL_THETA_FAULTS,
                       F={0: _even(f, 2 * m)}, G={0: _even(g, 2 * m)}))
    contexts = sorted({op["context"] for op in ops})
    return {"ops": ops, "contexts": [_built(DeformationContext(*c)) for c in contexts]}


def products_run(state: dict) -> list:
    outputs = []
    for op in state["ops"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = superstar.cli.main(op["argv"])
        outputs.append((code, buf.getvalue()))
    return outputs


def products_check(state: dict, outputs: list) -> tuple[int, int, list[str]]:
    failed = 0
    problems: list[str] = []
    for op, (code, text) in zip(state["ops"], outputs):
        if code != 0:
            failed += 1
            problems.append(f"exit {code}: {op['argv'][-1][:80]}")
            continue
        got = checks.words_from_cli(json.loads(text))
        if op["kind"] == "coefficients":
            want, mag = checks.super_product(op["F"], op["G"], op["m"], op["theta"], op["eta"])
            ok, dev = checks.compare_coefficients(got, want, mag)
        elif op["kind"] == "trace":
            ok, dev = checks.check_traciality(got.get(0, []), op["F"], op["G"])
        else:
            ok, dev = checks.check_commutator(got.get(0, []), op["F"], op["mu"],
                                              op["m"], op["theta"], op["points"])
        if not ok:
            failed += 1
            if not op.get("known_fault"):
                problems.append(f"{op['kind']} missed by {dev:.3g}: {op['argv'][-1][:80]}")
    return len(outputs), failed, problems


WORKLOADS = {
    "products": (products_setup, products_run, products_check),
    "report": (report_setup, report_run, report_check),
}
