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

The same certificate speaks for every row k >= 0.  Row k counts a
composition with j parts by (-1)^j j^k, so with f = f_A, the identity
sum_j j^k y^j = sum_i S(k,i) i! y^i / (1 - y)^(i+1) (S(k,i) the Stirling
numbers of the second kind) at y = -f, where 1 - y = p, gives

  sum_n S_k(n) x^n = N_k / p^(k+1),
  N_k = sum_{i<=k} S(k,i) i! (-f)^i p^(k-i).

Every term but i = k is a multiple of p, S(k,k) = 1 and
-f = 1 - p = 1 (mod p), so N_k = k! (mod p): N_k vanishes at no root of
p.  A root of multiplicity mu is then a pole of row k of order mu(k+1)
with a non-zero leading coefficient, and under (i)-(iii)
S_k(n) = 2 Re(C n^(mu(k+1)-1) omega_0^n) (1 + o(1)) with C != 0; as zeta
is not a root of unity, the signs of row k are not eventually periodic
either.

Verdicts are one-sided: NotEventuallyPeriodic when every hypothesis is
certified within the fixed tolerances, otherwise Inconclusive (numeric
trouble degrades to Inconclusive, never to a false certificate).
Periodicity itself is never certified here.

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

import cmath
import math

from . import Record
from .bigfloat import INF, Complex, Real
from .poly import (
    IntPoly,
    cyclotomic_divides,
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
REASON_DEGREE = "degree-above-root-finder-bound"
NOTE_EXACT_SKIPPED = "exact-tier-skipped-degree-above-bound"


class RootConvergenceError(RuntimeError):
    """Root refinement missed the requested residual within budget."""


# a run chooses only whether the exact tier runs; every other setting is
# one of these or residual_target(PRECISION)
PRECISION = 256             # working precision, bits
MIN_GAP = 2.0**-20          # relative modulus gap between clusters
MIN_UNITY_DISTANCE = 2.0**-20  # min |zeta^N - 1| over candidate orders
EXACT_DEGREE_CAP = 12       # ratio polynomial has degree d^2
SWEEP_BUDGET = 256          # sweeps per refinement pass
ROOT_DEGREE_CAP = 152       # every {1,d} up to here took < 4 s, {1,154} 25 s


def residual_target(precision: int) -> float:
    """t in |p(root)| <= t * (1+|root|)^deg: half the bits of a precision,
    since refinement stops near 2^-(precision-16), but at most 2^-128."""
    return 2.0 ** -min(128, precision // 2)


# every root, modulus and distance is a bigfloat Real or Complex at the
# working precision, floating point on Python ints
class Root(Record):
    value: Complex
    multiplicity: int
    residual: Real


class RootProfile(Record):
    poly: IntPoly
    precision: int
    roots: tuple[Root, ...]

    @property
    def degree(self) -> int:
        return sum(r.multiplicity for r in self.roots)


class DominantInfo(Record):
    root: Complex         # the member of the pair with positive imaginary part
    modulus: Real
    multiplicity: int
    relative_gap: Real    # to the nearest other cluster; inf if none


class ZetaTest(Record):
    degree_bound: int
    orders_checked: int
    min_distance: Real
    min_at_order: int


class ExactUnityTest(Record):
    ratio_degree: int
    orders_checked: int
    divisor_order: int | None  # cyclotomic order dividing R, if any


class NonPeriodicityReport(Record):
    poly: IntPoly
    exact: bool           # whether the exact unity tier was asked for
    verdict: str
    reasons: tuple[str, ...]
    profile: RootProfile | None = None
    dominant: DominantInfo | None = None
    zeta_test: ZetaTest | None = None
    exact_test: ExactUnityTest | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        def num(x):
            return x.nstr(32)

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
                "precision": PRECISION,
                "residual_tol": residual_target(PRECISION),
                "gap_tol": MIN_GAP,
                "unity_tol": MIN_UNITY_DISTANCE,
                "exact": self.exact,
                "exact_max_degree": EXACT_DEGREE_CAP,
            },
        }


# -- inputs -------------------------------------------------------------------


def denom_poly(spec: SetSpec) -> IntPoly:
    """p(x) = 1 + sum over parts a of x^a; the reciprocal series of p has
    coefficient n equal to S_0(n).  Finite sets only."""
    if not spec.is_finite:
        raise SpecError("denominator polynomial needs a finite part set")
    members = spec.members_up_to()
    top = max(members, default=0)
    coeffs = [0] * (top + 1)
    coeffs[0] = 1
    for a in members:
        coeffs[a] += 1
    return IntPoly(tuple(coeffs))


# -- numeric roots ------------------------------------------------------------


def _sweep(factor: IntPoly, roots: list, target) -> bool:
    """Weierstrass (Durand-Kerner) sweeps over the approximations in
    roots, refined in place, for any number type that IntPoly evaluates.

    True once a sweep moves no root by target or more; False when two
    approximations coincide or SWEEP_BUDGET runs out first (a step that
    is not a number never settles)."""
    for _ in range(SWEEP_BUDGET):
        settled = True
        for i, z in enumerate(roots):
            den = factor.lead
            for j, w in enumerate(roots):
                if j != i:
                    den *= z - w
            if not den:
                return False
            step = factor(z) / den
            roots[i] = z - step
            if not abs(step) < target:
                settled = False
        if settled:
            return True
    return False


def _durand_kerner(factor: IntPoly, precision: int) -> list[Complex]:
    """All roots of a square-free integer polynomial: spiral seeds inside
    Fujiwara's bound, refined first in double precision and then at the
    working precision down to 2^-(precision-16)."""
    deg = factor.degree
    # spiral seeds r*(0.4+0.9i)^k of pairwise distinct moduli, r being
    # Fujiwara's root bound (no big integer divided into a float)
    one = Real.of(1, precision)
    radius = 2 * max((Real.of(abs(c), precision) / abs(factor.lead)) ** (one / (deg - i))
                     for i, c in enumerate(factor.coeffs[:-1]))
    spiral = Complex.of(0.4 + 0.9j, precision)
    roots = [radius * spiral**k for k in range(1, deg + 1)]
    # a head start in doubles down to 2^-50 r, skipped on overflow; its
    # roots replace the seeds when finite and distinct, settled or not,
    # since a cluster too tight for doubles never settles yet ends near it
    try:
        fast = [complex(z) for z in roots]
        _sweep(factor, fast, 2.0**-50 * float(radius))
        if all(map(cmath.isfinite, fast)) and len(set(fast)) == deg:
            roots = [Complex.of(z, precision) for z in fast]
    except OverflowError:
        pass
    if not _sweep(factor, roots, Real.of(2, precision) ** (16 - precision)):
        raise RootConvergenceError(
            f"no convergence for degree {deg} within {SWEEP_BUDGET} sweeps")
    return roots


def _enforce_conjugates(roots: list[Complex], target: Real) -> list[Complex]:
    """Snap a root list of a real polynomial to exact conjugate symmetry."""
    im_eps = target.sqrt()
    real_part = []
    complex_part = []
    for r in roots:
        if abs(r.imag) <= im_eps * (1 + abs(r)):
            real_part.append(Complex.of(r.real, r.prec))
        else:
            complex_part.append(r)
    uppers = sorted((r for r in complex_part if r.imag > 0),
                    key=lambda z: (z.real, z.imag))
    lowers = [r for r in complex_part if r.imag < 0]
    if len(uppers) != len(lowers):
        raise RootConvergenceError("conjugate pairing failed")
    out = list(real_part)
    for u in uppers:
        j = min(range(len(lowers)), key=lambda i: abs(lowers[i].conjugate() - u))
        mate = lowers.pop(j)
        z = (u + mate.conjugate()) / 2
        out.append(z)
        out.append(z.conjugate())
    return out


def roots_numeric(p: IntPoly, precision: int = PRECISION) -> RootProfile:
    """All complex roots of p with exact multiplicities.

    Multiplicity structure comes from the exact square-free decomposition,
    so only square-free factors are refined numerically.  Conjugate
    symmetry is enforced exactly, and every root satisfies the residual
    bound |p(root)| <= residual_target(precision) * (1 + |root|)^deg(p).
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    if p.coeffs[0] != 1:
        raise ValueError("need constant term 1")
    tol = Real.of(residual_target(precision), precision)
    found: list[Root] = []
    for factor, mult in yun_squarefree(p):
        raw = _durand_kerner(factor, precision)
        for r in _enforce_conjugates(raw, tol):
            res = abs(p(r))
            bound = tol * (1 + abs(r)) ** p.degree
            if res > bound:
                raise RootConvergenceError(
                    f"residual {res.nstr(8)} above bound at root "
                    f"{r.real.nstr(8)} + {r.imag.nstr(8)}i")
            found.append(Root(r, mult, res))
    found.sort(key=lambda rt: (rt.value.real, rt.value.imag))
    return RootProfile(p, precision, tuple(found))


# -- the certificate ----------------------------------------------------------


def check_nonperiodic(p: IntPoly, exact: bool = False) -> NonPeriodicityReport:
    """Run the dominant-root certificate on p (p(0) = 1, degree >= 2),
    with the exact unity tier as well when ``exact``."""
    if p.degree < 2:
        raise SpecError("need degree >= 2")
    if p.coeffs[0] != 1:
        raise SpecError("need constant term 1")
    if p.degree > ROOT_DEGREE_CAP:
        return NonPeriodicityReport(p, exact, INCONCLUSIVE, (REASON_DEGREE,))
    try:
        profile = roots_numeric(p)
    except RootConvergenceError:
        return NonPeriodicityReport(
            p, exact, INCONCLUSIVE, (REASON_CONVERGENCE,))

    reasons: list[str] = []
    tol = Real.of(residual_target(PRECISION), PRECISION)

    # a conjugate pair shares its modulus exactly, so group by modulus:
    # the tight window collects roots at the minimal modulus, the gap
    # test measures everything outside it
    moduli = [abs(r.value) for r in profile.roots]
    dom_mod = min(moduli)
    tight = 2 * tol * (1 + dom_mod)
    dom_group = [i for i, m in enumerate(moduli) if m - dom_mod <= tight]
    rest = [moduli[i] for i in range(len(moduli)) if i not in dom_group]
    rel_gap = (min(rest) - dom_mod) / dom_mod if rest else Real(INF, PRECISION)

    # hypothesis (i): the minimal modulus carries one non-real pair
    dominant = None
    pair_ok = False
    if len(dom_group) == 2:
        r0, r1 = (profile.roots[i] for i in dom_group)
        if r0.value.imag != 0 and r0.value == r1.value.conjugate():
            upper = r0.value if r0.value.imag > 0 else r1.value
            dominant = DominantInfo(upper, dom_mod, r0.multiplicity, rel_gap)
            pair_ok = True
    if not pair_ok:
        only_real = all(profile.roots[i].value.imag == 0 for i in dom_group)
        reasons.append(REASON_DOMINANT_REAL if only_real
                       else REASON_DOMINANT_AMBIGUOUS)

    # hypothesis (ii): strict relative modulus gap past the pair
    if pair_ok and not rel_gap > MIN_GAP:
        reasons.append(REASON_GAP)

    # hypothesis (iii): zeta not a root of unity (numeric screen)
    zeta_test = None
    if pair_ok:
        d = p.degree
        bound = 2 * d * (d - 1)
        zeta = dominant.root.conjugate() / abs(dominant.root)
        orders = totient_candidates(bound)
        best, best_at = _unity_screen(zeta, orders)
        zeta_test = ZetaTest(bound, len(orders), best, best_at)
        if not best > MIN_UNITY_DISTANCE:
            reasons.append(REASON_UNITY)

    # optional exact tier for (iii); a found divisor means the exact
    # proof did not materialize (some root ratio is a root of unity,
    # not necessarily zeta^2), so the requested certificate is refused;
    # an oversized degree merely skips the tier and is noted
    exact_test = None
    notes: list[str] = []
    if exact and pair_ok:
        if p.degree > EXACT_DEGREE_CAP:
            notes.append(NOTE_EXACT_SKIPPED)
        else:
            exact_test = _exact_unity_screen(p, bound)
            if exact_test.divisor_order is not None:
                reasons.append(REASON_EXACT_DIVISOR)

    verdict = NOT_EVENTUALLY_PERIODIC if not reasons else INCONCLUSIVE
    return NonPeriodicityReport(p, exact, verdict, tuple(reasons),
                                profile, dominant, zeta_test, exact_test,
                                tuple(notes))


def _unity_screen(zeta: Complex, orders: list[int]) -> tuple[Real, int]:
    """Least |zeta^n - 1| over the ascending ``orders``, and the first
    order that attains it, exactly as the loop computing abs(zeta**n - 1)
    for every order would report them; orders 1 and 2 must be among them.

    With zeta = e^(2 pi i t), |zeta^n - 1| = 2 sin(pi ||n t||), ||.|| the
    distance to the nearest integer.  One angle t, the phase of the double
    nearest zeta in units of 2^-64 turns, gives every ||n t|| by integer
    arithmetic, and only the orders whose estimate lies within
    m = 2^(24 - min(p, 53)) * max(orders) of the least estimate pay for
    zeta**n, p being zeta's precision.

    Why nothing else can win: let e bound the error of each estimate of
    ||n t|| and of each computed |zeta^n - 1|.  Rounding zeta to a double
    and taking its phase costs at most 2^-52 of a turn, so an estimate is
    off by at most n * 2^-52 and a little more; rounding zeta and its powers
    at precision p costs a small multiple of n * 2^-p.  So e < m / 4 with a
    wide margin.  Let a be the order of the least estimate.  Since
    min(||t||, ||2t||) <= 1/3, ||a t|| <= 1/3 + 2e.  On [0, 1/2],
    2 sin(pi f) is increasing and concave, so its chord slope between
    ||a t|| and any larger f <= 1/2 is at least the one on [0.34, 1/2],
    which exceeds 1.  An order n off the shortlist has ||n t|| >
    ||a t|| + m - 2e, so its computed distance exceeds that of a by more
    than m - 4e > 0: it is neither the least nor tied with it.  When
    m >= 1/2 every order is on the shortlist.
    """
    scale = 1 << 64
    turn = round(cmath.phase(complex(zeta)) / (2 * math.pi) * scale)
    near = [min(r, scale - r) for r in (n * turn % scale for n in orders)]
    cut = min(near) + (orders[-1] << (88 - min(zeta.prec, 53)))
    best, best_at = Real(INF, zeta.prec), 0
    for n, f in zip(orders, near):
        if f <= cut:
            dist = abs(zeta**n - 1)
            if dist < best:
                best, best_at = dist, n
    return best, best_at


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
    """Test the ratio polynomial for every admissible cyclotomic factor.

    If zeta had finite order N then totient(N) <= degree_bound, and
    zeta^2 would be a primitive root of some order M >= 2 dividing N with
    totient(M) <= degree_bound; its minimal polynomial (the M-th
    cyclotomic) would divide R.  Each order is decided exactly by
    poly.cyclotomic_divides, which folds R mod x^M - 1 and builds no
    cyclotomic polynomial.  Orders are visited ascending and the scan
    stops at the first divisor.  No divisor found = exact proof that
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
        if cyclotomic_divides(m, ratio):
            divisor = m
            break
    return ExactUnityTest(ratio.degree, checked, divisor)


def check_set_nonperiodic(spec: SetSpec, exact: bool = False) -> NonPeriodicityReport:
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
    return check_nonperiodic(p, exact)
