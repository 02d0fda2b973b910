"""Checkers for the benchmark's outputs, computed apart from the program.

Nothing here imports ``superstar``: every expected value comes from a closed
rule or a series evaluated by this file, so a fault in the engine cannot hide
in its own checker.

Conventions (those of the program's ledger): even coordinates are ordered
(q_1..q_m, p_1..p_m) with omega = [[0, 1], [-1, 0]] per pair, the product has
first-order term lambda * omega^{mu nu} d_mu f d_nu g with
lambda = sigma * i * theta / 2 and sigma = -1, and odd generators satisfy
xi_a * xi_a = c_a = i * theta * eta_a / 2.

Even functions on the polynomial / plane-wave class are dicts
``{(alpha, k): coefficient}`` meaning ``sum c * x^alpha * exp(i k.x)``;
superfunctions are dicts ``{word: even dict}`` with bit ``a-1`` of ``word``
standing for xi_a.  General exp-poly terms (Gaussians) are tuples
``(c, alpha, A, b)`` meaning ``c * x^alpha * exp(x^T A x + b.x)``.
"""

from __future__ import annotations

from math import comb, factorial, pi

import numpy as np

SIGMA = -1
# A coefficient passes when it is within COEFF_RTOL of the sum of the
# magnitudes of the contributions to it, so cancellation is not held against
# the engine but a dropped or altered coefficient is caught.
COEFF_RTOL = 1e-10
# Pointwise checks: deviation relative to the largest sum of term magnitudes.
POINT_RTOL = 1e-9
# Traciality: relative to the sum of the magnitudes of the term integrals.
TRACE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# odd sector: the closed Clifford rule


def koszul_sign(I: int, J: int) -> int:
    """(-1)^{sum_{j in J} #{i in I : i > j}}, shared generators included."""
    count = 0
    rest = J
    while rest:
        low = rest & -rest
        rest ^= low
        count += (I >> low.bit_length()).bit_count()
    return -1 if count & 1 else 1


def clifford_factor(I: int, J: int, theta: float, eta) -> complex:
    """The scalar in xi^I * xi^J = factor * xi^{I xor J}."""
    out = complex(koszul_sign(I, J))
    common = I & J
    a = 0
    while common:
        if common & 1:
            out *= 1j * theta * eta[a] / 2
        common >>= 1
        a += 1
    return out


# ---------------------------------------------------------------------------
# even sector: Moyal series on polynomials and plane waves


def _derive(f: dict, axis: int, order: int) -> dict:
    """d^order / dx_axis^order of sum c x^alpha e^{i k.x}."""
    if order == 0:
        return f
    out: dict = {}
    for (alpha, k), c in f.items():
        a = alpha[axis]
        ik = 1j * k[axis]
        for j in range(min(order, a) + 1):
            if j < order and ik == 0:
                continue
            coeff = c * comb(order, j) * (factorial(a) // factorial(a - j)) * ik ** (order - j)
            if coeff == 0:
                continue
            new_alpha = alpha[:axis] + (a - j,) + alpha[axis + 1:]
            key = (new_alpha, k)
            out[key] = out.get(key, 0j) + coeff
    return out


def _derive_multi(f: dict, orders) -> dict:
    for axis, order in enumerate(orders):
        f = _derive(f, axis, order)
    return f


def _degree(f: dict) -> int | None:
    """Total degree when f is a polynomial, else None."""
    if any(any(k) for (_, k) in f):
        return None
    return max((sum(alpha) for alpha, _ in f), default=0)


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def moyal_even(f: dict, g: dict, m: int, theta: float):
    """(f * g, magnitudes) on R^{2m}, at least one of f, g a polynomial.

    exp(lambda sum_a (d_qa (x) d_pa - d_pa (x) d_qa)) factorizes over pairs:
    f * g = sum_{r, s} prod_a lambda^{r_a+s_a} (-1)^{s_a} / (r_a! s_a!)
            (d_q^r d_p^s f)(d_p^r d_q^s g).
    Plane waves on both sides take the closed phase instead.
    """
    lam = SIGMA * 1j * theta / 2
    deg_f, deg_g = _degree(f), _degree(g)
    if deg_f is None and deg_g is None:
        return _plane_wave_product(f, g, m, theta)
    bound = min(d for d in (deg_f, deg_g) if d is not None)
    out: dict = {}
    mag: dict = {}
    for order in range(bound + 1):
        for rs in _compositions(order, 2 * m):
            r, s = rs[:m], rs[m:]
            weight = complex(lam ** order)
            for a in range(m):
                weight *= (-1) ** s[a] / (factorial(r[a]) * factorial(s[a]))
            df = _derive_multi(f, r + s)
            dg = _derive_multi(g, s + r)
            if not df or not dg:
                continue
            _accumulate_products(out, mag, df, dg, weight)
    return out, mag


def _plane_wave_product(f: dict, g: dict, m: int, theta: float):
    """e^{ik.x} * e^{il.x} = e^{i theta/2 (k_q.l_p - k_p.l_q)} e^{i(k+l).x}."""
    out: dict = {}
    mag: dict = {}
    for (a1, k), c1 in f.items():
        for (a2, l), c2 in g.items():
            if any(a1) or any(a2):
                raise ValueError("closed phase needs pure plane waves")
            u = sum(k[a] * l[m + a] - k[m + a] * l[a] for a in range(m))
            c = c1 * c2 * np.exp(-SIGMA * 1j * theta * u / 2)
            key = (a1, tuple(x + y for x, y in zip(k, l)))
            out[key] = out.get(key, 0j) + c
            mag[key] = mag.get(key, 0.0) + abs(c)
    return out, mag


def _accumulate_products(out: dict, mag: dict, f: dict, g: dict, weight: complex) -> None:
    for (a1, k1), c1 in f.items():
        for (a2, k2), c2 in g.items():
            c = weight * c1 * c2
            key = (tuple(x + y for x, y in zip(a1, a2)),
                   tuple(x + y for x, y in zip(k1, k2)))
            out[key] = out.get(key, 0j) + c
            mag[key] = mag.get(key, 0.0) + abs(c)


def super_product(F: dict, G: dict, m: int, theta: float, eta):
    """Expected F * G for superfunctions with polynomial / plane-wave parts.

    Returns ({word: {(alpha, k): c}}, {word: {(alpha, k): magnitude}}).
    """
    out: dict = {}
    mag: dict = {}
    for I, f in F.items():
        for J, g in G.items():
            factor = clifford_factor(I, J, theta, eta)
            if factor == 0:
                continue
            even, even_mag = moyal_even(f, g, m, theta)
            word = I ^ J
            o = out.setdefault(word, {})
            mg = mag.setdefault(word, {})
            for key, c in even.items():
                o[key] = o.get(key, 0j) + factor * c
                mg[key] = mg.get(key, 0.0) + abs(factor) * even_mag[key]
    return out, mag


# ---------------------------------------------------------------------------
# the program's JSON output


def terms_from_json(fun: dict) -> list:
    """``ExpPolyFunction.to_json_dict`` -> [(c, alpha, A, b)]."""
    d = int(fun["d"])
    out = []
    for t in fun["terms"]:
        A = np.array([[complex(re, im) for re, im in row] for row in t["A"]],
                     dtype=complex).reshape(d, d)
        b = np.array([complex(re, im) for re, im in t["b"]], dtype=complex)
        out.append((complex(*t["c"]), tuple(int(a) for a in t["alpha"]), A, b))
    return out


def words_from_cli(report: dict) -> dict:
    """``superstar star`` JSON -> {word: [(c, alpha, A, b)]}."""
    out = {}
    for entry in report["result"]:
        word = 0
        for a in entry["odd_indices"]:
            word |= 1 << (a - 1)
        out[word] = terms_from_json(entry["function"])
    return out


def compare_coefficients(got: dict, want: dict, mag: dict) -> tuple[bool, float]:
    """Coefficient-by-coefficient comparison on the polynomial / wave class.

    ``got`` is {word: [(c, alpha, A, b)]}; every term must have A = 0 and a
    purely imaginary b = i k.  Returns (passed, worst relative deviation).
    """
    top = max((abs(c) for w in want.values() for c in w.values()), default=0.0)
    got_keys: dict = {}
    for word, terms in got.items():
        for c, alpha, A, b in terms:
            if np.any(A != 0) or np.any(b.real != 0):
                return False, float("inf")
            key = (word, alpha, tuple(round(float(x), 9) + 0.0 for x in b.imag))
            got_keys[key] = got_keys.get(key, 0j) + c
    want_keys: dict = {}
    mag_keys: dict = {}
    for word, fun in want.items():
        for (alpha, k), c in fun.items():
            key = (word, alpha, tuple(round(float(x), 9) + 0.0 for x in k))
            want_keys[key] = want_keys.get(key, 0j) + c
            mag_keys[key] = mag_keys.get(key, 0.0) + mag[word][(alpha, k)]
    worst = 0.0
    passed = True
    for key in set(got_keys) | set(want_keys):
        dev = abs(got_keys.get(key, 0j) - want_keys.get(key, 0j))
        scale = mag_keys.get(key, 0.0)
        if scale == 0.0:
            # a term the rule says is absent: tolerate float noise only
            ok = dev <= 1e-13 * top
            rel = dev / top if top else dev
        else:
            ok = dev <= COEFF_RTOL * scale
            rel = dev / scale
        passed = passed and ok
        worst = max(worst, rel)
    return passed, worst


# ---------------------------------------------------------------------------
# pointwise evaluation of exp-poly terms


def _term_parts(terms, pts: np.ndarray):
    """Per term: (value, monomial, exponential) arrays at the points."""
    for c, alpha, A, b in terms:
        expo = np.exp(np.einsum("ni,ij,nj->n", pts, A, pts) + pts @ b)
        mono = np.ones(len(pts), dtype=complex)
        for i, a in enumerate(alpha):
            if a:
                mono = mono * pts[:, i] ** a
        yield c, alpha, A, b, mono, expo


def evaluate(terms, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(pts), dtype=complex)
    for c, _, _, _, mono, expo in _term_parts(terms, pts):
        out += c * mono * expo
    return out


def symplectic_gradient(terms, pts: np.ndarray, mu: int, m: int):
    """((omega grad F)_mu, sum of term magnitudes) at the points."""
    nu = mu + m if mu < m else mu - m
    sign = 1.0 if mu < m else -1.0
    out = np.zeros(len(pts), dtype=complex)
    mag = np.zeros(len(pts))
    for c, alpha, A, b, mono, expo in _term_parts(terms, pts):
        lin = 2 * (pts @ A[nu]) + b[nu]
        parts = [c * lin * mono * expo]
        if alpha[nu]:
            lower = list(alpha)
            lower[nu] -= 1
            low = np.ones(len(pts), dtype=complex)
            for i, a in enumerate(lower):
                if a:
                    low = low * pts[:, i] ** a
            parts.append(c * alpha[nu] * low * expo)
        for p in parts:
            out += sign * p
            mag += np.abs(p)
    return out, mag


def check_commutator(got_terms, F_terms, mu: int, m: int, theta: float,
                     pts: np.ndarray) -> tuple[bool, float]:
    """x_mu * F - F * x_mu = sigma i theta (omega grad F)_mu, pointwise."""
    grad, mag = symplectic_gradient(F_terms, pts, mu, m)
    want = SIGMA * 1j * theta * grad
    got = evaluate(got_terms, pts)
    scale = abs(theta) * float(np.max(mag))
    if scale == 0.0:
        return False, float("inf")
    dev = float(np.max(np.abs(got - want))) / scale
    return dev <= POINT_RTOL, dev


# ---------------------------------------------------------------------------
# exact Gaussian integrals


def gaussian_integral(c: complex, alpha, A: np.ndarray, b: np.ndarray) -> complex:
    """int c x^alpha exp(x^T A x + b.x) dx over R^d, Re(A) negative definite.

    With M = -2A, K = M^{-1} and mu = K b the measure is a complex Gaussian of
    mean mu and covariance K; moments follow Stein's identity
    m(alpha + e_i) = mu_i m(alpha) + sum_j K_ij alpha_j m(alpha - e_j), and
    det(M)^{-1/2} takes the principal root of each eigenvalue (all have
    positive real part).
    """
    d = len(alpha)
    if d == 0:
        return complex(c)
    M = -2.0 * np.asarray(A, dtype=complex)
    K = np.linalg.inv(M)
    mean = K @ b
    root = np.prod(np.sqrt(np.linalg.eigvals(M).astype(complex)))
    norm = (2 * pi) ** (d / 2) / root * np.exp(0.5 * (b @ K @ b))
    memo: dict = {(0,) * d: 1.0 + 0j}

    def moment(al: tuple) -> complex:
        if al in memo:
            return memo[al]
        i = next(j for j, a in enumerate(al) if a)
        base = al[:i] + (al[i] - 1,) + al[i + 1:]
        val = mean[i] * moment(base)
        for j, a in enumerate(base):
            if a:
                val += K[i, j] * a * moment(base[:j] + (a - 1,) + base[j + 1:])
        memo[al] = val
        return val

    return complex(c * norm * moment(tuple(alpha)))


def integrable(terms) -> bool:
    return all(len(alpha) == 0 or np.max(np.linalg.eigvalsh(A.real)) < -1e-12
               for _, alpha, A, _ in terms)


def pointwise_product(F_terms, G_terms) -> list:
    return [(c1 * c2, tuple(x + y for x, y in zip(a1, a2)), A1 + A2, b1 + b2)
            for c1, a1, A1, b1 in F_terms for c2, a2, A2, b2 in G_terms]


def check_traciality(P_terms, F_terms, G_terms) -> tuple[bool, float]:
    """int F * G = int F G, both sides in closed form."""
    if not (integrable(P_terms) and integrable(pointwise_product(F_terms, G_terms))):
        return False, float("inf")
    lhs_parts = [gaussian_integral(*t) for t in P_terms]
    rhs_parts = [gaussian_integral(*t) for t in pointwise_product(F_terms, G_terms)]
    scale = max(sum(abs(v) for v in lhs_parts), sum(abs(v) for v in rhs_parts))
    dev = abs(sum(lhs_parts) - sum(rhs_parts)) / scale
    return dev <= TRACE_RTOL, dev


# ---------------------------------------------------------------------------
# the verification report


SUITES = ("eps", "gw", "heisenberg", "hilbert", "qgroup", "star", "torus", "udf")
LEDGER_RTOL = 1e-12


def eps_case_counts(n: int) -> dict:
    """Subset pairs that overlap, disjoint pairs, pairwise-disjoint triples."""
    return {
        "zero-on-overlapping-subsets": 4 ** n - 3 ** n,
        "graded-symmetry-on-disjoint-subsets": 3 ** n,
        "disjoint-union-multiplicativity": 4 ** n,
    }


def _ledgers(node, out: list) -> None:
    """Collect (theta, eta, ledger) wherever a report states a context."""
    if isinstance(node, dict):
        if "ledger" in node and "theta" in node:
            led = node["ledger"]
            n = len(led["c_plus"])
            if "signature" in node:
                p, q = node["signature"]
                eta = (1,) * p + (-1,) * q
            else:
                eta = (1,) * n
            out.append((float(node["theta"]), eta, led))
        for value in node.values():
            _ledgers(value, out)
    elif isinstance(node, list):
        for value in node:
            _ledgers(value, out)


def check_report(report: dict, eps_n: int = 6) -> tuple[int, int, list[str]]:
    """(checks attempted, checks failed, problems) for ``verify suite=all``.

    A problem is anything that makes the report wrong beyond a failed check:
    a missing suite, a check with no cases, a case count that disagrees with
    the subset counts, an unrefuted target map or a ledger constant that
    disagrees with sigma = -1 and c_a = i theta eta_a / 2.
    """
    problems: list[str] = []
    suites = report.get("suites", [])
    names = tuple(s["suite"] for s in suites)
    if names != SUITES:
        problems.append(f"suites {names} != {SUITES}")
    attempted = failed = 0
    for s in suites:
        checks = s["checks"]
        if not checks:
            problems.append(f"{s['suite']}: no checks")
        for c in checks:
            attempted += 1
            failed += 0 if c["passed"] else 1
            if c["cases"] < 1:
                problems.append(f"{s['suite']}/{c['check']}: no cases")
        if s["cases"] != sum(c["cases"] for c in checks):
            problems.append(f"{s['suite']}: case total disagrees with its checks")
        if s["passed"] != all(c["passed"] for c in checks):
            problems.append(f"{s['suite']}: verdict disagrees with its checks")
    if report.get("cases") != sum(s["cases"] for s in suites):
        problems.append("case total disagrees with the suites")
    if report.get("passed") != (failed == 0 and bool(suites)):
        problems.append("verdict disagrees with the checks")
    by_name = {s["suite"]: s for s in suites}
    if "eps" in by_name:
        got = {c["check"]: c["cases"] for c in by_name["eps"]["checks"]}
        if got != eps_case_counts(eps_n):
            problems.append(f"eps case counts {got} != {eps_case_counts(eps_n)}")
    if "gw" in by_name:
        refuted = [c for c in by_name["gw"]["checks"]
                   if c["check"] == "target-coefficient-map-refuted"]
        if len(refuted) != 1 or not refuted[0]["passed"]:
            problems.append("gw: the target coefficient map is not checked as refuted")
    ledgers: list = []
    _ledgers(report, ledgers)
    if not ledgers:
        problems.append("no context ledgers")
    for theta, eta, led in ledgers:
        if led["sigma"] != SIGMA:
            problems.append(f"ledger sigma {led['sigma']} at theta={theta}")
        for a, (re, im) in enumerate(led["c_plus"]):
            want = 1j * theta * eta[a] / 2
            if abs(complex(re, im) - want) > LEDGER_RTOL * abs(want):
                problems.append(f"ledger c_{a + 1} = {complex(re, im)} != {want}")
    return attempted, failed, problems
