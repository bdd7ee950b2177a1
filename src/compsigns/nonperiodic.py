"""Certifier for non-eventually-periodic coefficient signs of 1/p.

Given an integer polynomial p with p(0) = 1, the reciprocal series
1/p(x) has integer coefficients; this module decides, when it can, that
their sign sequence is not eventually periodic.  The criterion: writing
the roots of p as reciprocals 1/omega_i, it suffices that

  (i)   the maximal-modulus omega (= reciprocal of the minimal-modulus
        root of p) is a single non-real conjugate pair,
  (ii)  its modulus beats every other root cluster by a clear gap, and
  (iii) zeta = omega_0/|omega_0| is not a root of unity.

For part-sets this applies to p = 1 + f_A(x), whose reciprocal
coefficients are exactly the k = 0 alternating sums.

Verdicts are one-sided: NotEventuallyPeriodic when every hypothesis is
certified within the configured tolerances, otherwise Inconclusive
(numeric trouble degrades to Inconclusive, never to a false
certificate).  Periodicity itself is never certified here.

The unity test (iii) runs in two tiers.  The numeric screen bounds the
algebraic degree of zeta by D = 2d(d-1) (zeta^2 is a ratio of two roots
of a degree-d polynomial, so its degree is at most d(d-1); passing to
zeta at most doubles that) and requires |zeta^N - 1| to stay clearly
away from 0 for every N with totient(N) <= D.  The optional exact tier
removes numerics from (iii) entirely: the ratio polynomial
R(x) = Res_y(p(y), p(x*y)) vanishes exactly on root ratios of p, and
zeta^2 is such a ratio, so if no cyclotomic polynomial of admissible
order M >= 2 divides R then zeta^2 (hence zeta, which is non-real by
(i)) is not a root of unity.  R(1) = 0 always (self-ratios), which is
why order 1 is exempt.

R is built as a composed product (Bostan, Flajolet, Salvy, Schost 2006,
"Fast computation of special resultants", J. Symbolic Comput. 41), with
no resultant and no interpolation.  Its d^2 roots are the ratios
beta_j/beta_i of the roots of p, so its k-th power sum is
s_k(p) * s_{-k}(p).  In integers: with c the leading coefficient,
c*beta_j are the roots of the monic c^(d-1) p(x/c) and 1/beta_i those
of the reversal of p, monic because p(0) = 1.  Both have integer power
sums, their termwise product is the power-sum sequence of the ratios
times c^k, Newton's identities turn it back into a monic integer
polynomial, and x -> c*x followed by the primitive part gives R.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .poly import (
    IntPoly,
    cyclotomic,
    monic_divides,
    monic_from_power_sums,
    power_sums,
    primitive,
    totient_candidates,
    yun_squarefree,
)
from .sets import SetSpec, SpecError

NOT_EVENTUALLY_PERIODIC = "NotEventuallyPeriodic"
INCONCLUSIVE = "Inconclusive"

REASON_CONVERGENCE = "root-refinement-did-not-converge"
REASON_DOMINANT_REAL = "dominant-root-cluster-is-real"
REASON_DOMINANT_AMBIGUOUS = "dominant-cluster-not-a-single-pair"
REASON_GAP = "modulus-gap-below-tolerance"
REASON_UNITY = "zeta-too-close-to-a-root-of-unity"
REASON_EXACT_DIVISOR = "cyclotomic-factor-divides-ratio-polynomial"
NOTE_EXACT_SKIPPED = "exact-tier-skipped-degree-above-bound"


class RootConvergenceError(RuntimeError):
    """Root refinement missed the requested residual within budget."""


@dataclass(frozen=True)
class CertConfig:
    precision: int = 256              # working precision, bits
    residual_tol: float = 2.0**-128   # |p(root)| <= tol * (1+|root|)^deg
    gap_tol: float = 2.0**-20         # relative modulus gap between clusters
    unity_tol: float = 2.0**-20       # min |zeta^N - 1| over candidate orders
    exact: bool = False               # run the exact unity tier as well
    exact_max_degree: int = 12        # ratio polynomial has degree d^2
    max_iterations: int = 256


DEFAULT_CONFIG = CertConfig()


@dataclass(frozen=True)
class Root:
    value: mp.mpc
    multiplicity: int
    residual: mp.mpf


@dataclass(frozen=True)
class RootProfile:
    poly: IntPoly
    precision: int
    roots: tuple[Root, ...]
    clusters: tuple[tuple[int, ...], ...]  # index groups, numerically merged

    @property
    def degree(self) -> int:
        return sum(r.multiplicity for r in self.roots)


@dataclass(frozen=True)
class DominantInfo:
    root: mp.mpc          # the member of the pair with positive imaginary part
    modulus: mp.mpf
    multiplicity: int
    relative_gap: mp.mpf  # to the nearest other cluster; inf if none


@dataclass(frozen=True)
class ZetaTest:
    degree_bound: int
    orders_checked: int
    min_distance: mp.mpf
    min_at_order: int


@dataclass(frozen=True)
class ExactUnityTest:
    ratio_degree: int
    orders_checked: int
    divisor_order: int | None  # cyclotomic order dividing R, if any


@dataclass(frozen=True)
class NonPeriodicityReport:
    poly: IntPoly
    config: CertConfig
    verdict: str
    reasons: tuple[str, ...]
    profile: RootProfile | None = None
    dominant: DominantInfo | None = None
    zeta_test: ZetaTest | None = None
    exact_test: ExactUnityTest | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        def num(x):
            return mp.nstr(x, 32)

        roots_json = None
        if self.profile is not None:
            roots_json = [
                {
                    "re": num(r.value.real),
                    "im": num(r.value.imag),
                    "multiplicity": r.multiplicity,
                    "residual_bound": num(r.residual),
                }
                for r in self.profile.roots
            ]
        dom = None
        if self.dominant is not None:
            dom = {
                "re": num(self.dominant.root.real),
                "im": num(self.dominant.root.imag),
                "modulus": num(self.dominant.modulus),
                "multiplicity": self.dominant.multiplicity,
                "relative_gap": num(self.dominant.relative_gap),
            }
        zeta = None
        if self.zeta_test is not None:
            zeta = {
                "degree_bound": self.zeta_test.degree_bound,
                "orders_checked": self.zeta_test.orders_checked,
                "min_distance": num(self.zeta_test.min_distance),
                "min_at_order": self.zeta_test.min_at_order,
            }
        exact = None
        if self.exact_test is not None:
            exact = {
                "ratio_degree": self.exact_test.ratio_degree,
                "orders_checked": self.exact_test.orders_checked,
                "divisor_order": self.exact_test.divisor_order,
            }
        return {
            "poly": [str(c) for c in self.poly.coeffs],
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "notes": list(self.notes),
            "roots": roots_json,
            "dominant": dom,
            "zeta_test": zeta,
            "exact_test": exact,
            "config": {
                "precision": self.config.precision,
                "residual_tol": self.config.residual_tol,
                "gap_tol": self.config.gap_tol,
                "unity_tol": self.config.unity_tol,
                "exact": self.config.exact,
                "exact_max_degree": self.config.exact_max_degree,
            },
        }


# -- inputs -------------------------------------------------------------------


def denom_poly(spec: SetSpec) -> IntPoly:
    """p(x) = 1 + sum over parts a of x^a; the reciprocal series of p has
    coefficient n equal to S_0(n).  Finite sets only."""
    if not spec.is_finite:
        raise SpecError("denominator polynomial needs a finite part set")
    members = spec.members_capped()
    top = max(members, default=0)
    coeffs = [0] * (top + 1)
    coeffs[0] = 1
    for a in members:
        coeffs[a] += 1
    return IntPoly(tuple(coeffs))


def reciprocal_prefix(p: IntPoly, order: int) -> list[int]:
    """First order+1 integer coefficients of 1/p (requires p(0) = 1)."""
    from ._backend import series_inv_int

    if p.is_zero or p.coeffs[0] != 1:
        raise ValueError("reciprocal prefix needs constant term 1")
    return series_inv_int(list(p.coeffs), order)


def reciprocal_sign_prefix(p: IntPoly, order: int) -> list[int]:
    return [(c > 0) - (c < 0) for c in reciprocal_prefix(p, order)]


# -- numeric roots ------------------------------------------------------------


def _as_monic_mpc(p: IntPoly) -> list[mp.mpc]:
    lead = p.lead
    return [mp.mpc(c) / lead for c in p.coeffs]


def _poly_eval(coeffs: list[mp.mpc], x: mp.mpc) -> mp.mpc:
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _seed_roots(factor: IntPoly) -> list[mp.mpc]:
    deg = factor.degree
    try:
        guesses = np.roots(np.array(list(reversed(factor.coeffs)), dtype=float))
        if len(guesses) == deg and np.all(np.isfinite(guesses)):
            return [mp.mpc(complex(g)) for g in guesses]
    except Exception:
        pass
    bound = 1 + max(abs(c) for c in factor.coeffs) / abs(factor.lead)
    spin = mp.mpc(0.4, 0.9)
    return [bound * spin**k for k in range(1, deg + 1)]


def _durand_kerner(factor: IntPoly, precision: int, budget: int) -> list[mp.mpc]:
    """All roots of a square-free integer polynomial by simultaneous
    first-order refinement from companion-matrix / spiral seeds."""
    deg = factor.degree
    if deg == 1:
        return [mp.mpf(-factor.coeffs[0]) / factor.coeffs[1]]
    coeffs = _as_monic_mpc(factor)
    roots = _seed_roots(factor)
    # distinct seeds are required; nudge collisions apart
    for i in range(deg):
        for j in range(i):
            if abs(roots[i] - roots[j]) < mp.mpf("1e-12"):
                roots[i] += mp.mpc("1e-6", "1e-6") * (i + 1)
    target = mp.mpf(2) ** (-(precision - 16))
    for _ in range(budget):
        worst = mp.mpf(0)
        for i in range(deg):
            num = _poly_eval(coeffs, roots[i])
            den = mp.mpc(1)
            for j in range(deg):
                if j != i:
                    den *= roots[i] - roots[j]
            if den == 0:
                roots[i] += mp.mpc("1e-9", "1e-9")
                worst = mp.inf
                continue
            step = num / den
            roots[i] -= step
            worst = max(worst, abs(step))
        if worst < target:
            return roots
    raise RootConvergenceError(
        f"no convergence for degree {deg} within {budget} sweeps")


def _enforce_conjugates(roots: list[mp.mpc], residual_tol: mp.mpf) -> list[mp.mpc]:
    """Snap a root list of a real polynomial to exact conjugate symmetry."""
    im_eps = mp.sqrt(residual_tol)
    real_part = []
    complex_part = []
    for r in roots:
        if abs(r.imag) <= im_eps * (1 + abs(r)):
            real_part.append(mp.mpc(r.real, 0))
        else:
            complex_part.append(r)
    uppers = sorted((r for r in complex_part if r.imag > 0),
                    key=lambda z: (z.real, z.imag))
    lowers = [r for r in complex_part if r.imag < 0]
    if len(uppers) != len(lowers):
        raise RootConvergenceError("conjugate pairing failed")
    out = list(real_part)
    for u in uppers:
        j = min(range(len(lowers)), key=lambda i: abs(mp.conj(lowers[i]) - u))
        mate = lowers.pop(j)
        z = (u + mp.conj(mate)) / 2
        out.append(z)
        out.append(mp.conj(z))
    return out


def roots_numeric(
    p: IntPoly,
    precision: int = DEFAULT_CONFIG.precision,
    residual_tol: float = DEFAULT_CONFIG.residual_tol,
    max_iterations: int = DEFAULT_CONFIG.max_iterations,
) -> RootProfile:
    """All complex roots of p with exact multiplicities.

    Multiplicity structure comes from the exact square-free decomposition,
    so only square-free factors are refined numerically.  Conjugate
    symmetry is enforced exactly, every root satisfies the residual bound
    |p(root)| <= residual_tol * (1 + |root|)^deg(p), and roots closer than
    2 * residual_tol are merged into one cluster.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    if p.coeffs[0] != 1:
        raise ValueError("need constant term 1")
    with mp.workprec(precision):
        tol = mp.mpf(residual_tol)
        found: list[Root] = []
        for factor, mult in yun_squarefree(p):
            raw = _durand_kerner(factor, precision, max_iterations)
            for r in _enforce_conjugates(raw, tol):
                res = abs(_poly_eval([mp.mpc(c) for c in p.coeffs], r))
                bound = tol * (1 + abs(r)) ** p.degree
                if res > bound:
                    raise RootConvergenceError(
                        f"residual {mp.nstr(res, 8)} above bound at root "
                        f"{mp.nstr(r, 8)}")
                found.append(Root(r, mult, res))
        found.sort(key=lambda rt: (rt.value.real, rt.value.imag))
        clusters: list[list[int]] = []
        merge_eps = 2 * tol
        for idx, rt in enumerate(found):
            for group in clusters:
                if abs(found[group[0]].value - rt.value) <= merge_eps:
                    group.append(idx)
                    break
            else:
                clusters.append([idx])
        return RootProfile(p, precision, tuple(found),
                           tuple(tuple(g) for g in clusters))


# -- the certificate ----------------------------------------------------------


def check_nonperiodic(p: IntPoly, config: CertConfig = DEFAULT_CONFIG) -> NonPeriodicityReport:
    """Run the dominant-root certificate on p (p(0) = 1, degree >= 2)."""
    if p.degree < 2:
        raise ValueError("need degree >= 2")
    if p.coeffs[0] != 1:
        raise ValueError("need constant term 1")
    try:
        profile = roots_numeric(p, config.precision, config.residual_tol,
                                config.max_iterations)
    except RootConvergenceError:
        return NonPeriodicityReport(
            p, config, INCONCLUSIVE, (REASON_CONVERGENCE,))

    with mp.workprec(config.precision):
        reasons: list[str] = []
        gap_tol = mp.mpf(config.gap_tol)
        tol = mp.mpf(config.residual_tol)

        # a conjugate pair shares its modulus exactly, so group by modulus:
        # the tight window collects roots at the minimal modulus, the gap
        # test measures everything outside it
        moduli = [abs(r.value) for r in profile.roots]
        dom_mod = min(moduli)
        tight = 2 * tol * (1 + dom_mod)
        dom_group = [i for i, m in enumerate(moduli) if m - dom_mod <= tight]
        rest = [moduli[i] for i in range(len(moduli)) if i not in dom_group]
        rel_gap = (min(rest) - dom_mod) / dom_mod if rest else mp.inf

        # hypothesis (i): the minimal modulus carries one non-real pair
        dominant = None
        pair_ok = False
        if len(dom_group) == 2:
            r0, r1 = (profile.roots[i] for i in dom_group)
            if r0.value.imag != 0 and r0.value == mp.conj(r1.value):
                upper = r0.value if r0.value.imag > 0 else r1.value
                dominant = DominantInfo(upper, dom_mod, r0.multiplicity, rel_gap)
                pair_ok = True
        if not pair_ok:
            only_real = all(profile.roots[i].value.imag == 0 for i in dom_group)
            reasons.append(REASON_DOMINANT_REAL if only_real
                           else REASON_DOMINANT_AMBIGUOUS)

        # hypothesis (ii): strict relative modulus gap past the pair
        if pair_ok and not rel_gap > gap_tol:
            reasons.append(REASON_GAP)

        # hypothesis (iii): zeta not a root of unity (numeric screen)
        zeta_test = None
        if pair_ok:
            d = p.degree
            bound = 2 * d * (d - 1)
            zeta = mp.conj(dominant.root) / abs(dominant.root)
            best = mp.inf
            best_at = 0
            orders = totient_candidates(bound)
            for n in orders:
                dist = abs(zeta**n - 1)
                if dist < best:
                    best = dist
                    best_at = n
            zeta_test = ZetaTest(bound, len(orders), best, best_at)
            if not best > mp.mpf(config.unity_tol):
                reasons.append(REASON_UNITY)

        # optional exact tier for (iii); a found divisor means the exact
        # proof did not materialize (some root ratio is a root of unity,
        # not necessarily zeta^2), so the requested certificate is refused;
        # an oversized degree merely skips the tier and is noted
        exact_test = None
        notes: list[str] = []
        if config.exact and pair_ok:
            if p.degree > config.exact_max_degree:
                notes.append(NOTE_EXACT_SKIPPED)
            else:
                exact_test = _exact_unity_screen(p, 2 * p.degree * (p.degree - 1))
                if exact_test.divisor_order is not None:
                    reasons.append(REASON_EXACT_DIVISOR)

        verdict = NOT_EVENTUALLY_PERIODIC if not reasons else INCONCLUSIVE
        return NonPeriodicityReport(p, config, verdict, tuple(reasons),
                                    profile, dominant, zeta_test, exact_test,
                                    tuple(notes))


def ratio_poly(p: IntPoly) -> IntPoly:
    """Primitive part of R(x) = Res_y(p(y), p(x*y)), of degree d^2: its
    roots are the ratios r/s of roots of p, with multiplicity (R(1) = 0
    always, from self-ratios).  Built from power sums, see the module
    docstring; needs p(0) = 1 and degree >= 1."""
    d = p.degree
    if d < 1 or p.coeffs[0] != 1:
        raise ValueError("ratio polynomial needs degree >= 1 and constant term 1")
    c = p.lead
    scaled = IntPoly(tuple(a * c ** (d - 1 - i)
                           for i, a in enumerate(p.coeffs[:-1])) + (1,))
    forward = power_sums(scaled, d * d)
    backward = power_sums(IntPoly(p.coeffs[::-1]), d * d)
    monic = monic_from_power_sums([s * t for s, t in zip(forward, backward)])
    return primitive(IntPoly(tuple(m * c**i for i, m in enumerate(monic.coeffs))))


def _exact_unity_screen(p: IntPoly, degree_bound: int) -> ExactUnityTest:
    """Try to divide the ratio polynomial by every admissible cyclotomic.

    If zeta had finite order N then totient(N) <= degree_bound, and
    zeta^2 would be a primitive root of some order M >= 2 dividing N with
    totient(M) <= degree_bound; its minimal polynomial (the M-th
    cyclotomic) would divide R.  No divisor found = exact proof that
    hypothesis (iii) holds, with no numerics involved.
    """
    ratio = ratio_poly(p)
    checked = 0
    divisor = None
    # the M-th cyclotomic has degree totient(M), so it can divide R only
    # when totient(M) <= deg R as well
    for m in totient_candidates(min(degree_bound, ratio.degree)):
        if m < 2:
            continue
        checked += 1
        if monic_divides(cyclotomic(m), ratio):
            divisor = m
            break
    return ExactUnityTest(ratio.degree, checked, divisor)


def check_set_nonperiodic(spec: SetSpec, config: CertConfig = DEFAULT_CONFIG) -> NonPeriodicityReport:
    """Certify a finite part-set via p = 1 + f_A.

    All-odd sets are rejected: their normalized k = 0 word is settled
    non-negative (it equals the plain count sequence), so running the
    certifier on them would answer a question nobody asked.
    """
    if not spec.is_empty and spec.all_odd():
        raise SpecError(
            f"{spec.render()} has only odd parts; its normalized sign words "
            "are settled non-negative and need no certificate")
    p = denom_poly(spec)
    if p.degree < 2:
        raise SpecError(f"{spec.render()} gives a degree < 2 denominator")
    return check_nonperiodic(p, config)
