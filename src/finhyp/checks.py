"""Executable checks: each one evaluates both sides of an identity on a
concrete instance and reports pass or fail with a witness, or inconclusive
when the working precision leaves nothing to compare.

A failing check is a verdict, not an exception; checks only raise when the
instance violates a precondition (wrong prime, non-split parameters) or a
resource bound, the errors of PRECONDITION_ERRORS.  Any other FinHypError
that a check raises is a defect it met: run_full_suite reports it as a
failed check and goes on.
"""

import json
import time
from fractions import Fraction
from math import gcd, lcm
from random import Random

from ._value import Value
from .charsums import AlgebraChar, SemisimpleAlgebra, gauss_norm_exponent
from .errors import (
    AssumptionFails,
    BadPrime,
    BoundExceeded,
    DoesNotSplit,
    FieldTooLarge,
    FinHypError,
    LengthMismatch,
    NotPrime,
)
from .finfield import make_field, prime_power
from .hypergeometric import (
    HGAlgebraInstance,
    algebra_sums_direct,
    algebra_sums_fourier,
    classic_sums,
    orbit_instance,
    split_instance,
)
from .padic import (
    PadicNum,
    embed_cyclotomic,
    padic_sum_direct,
    padic_sums_direct,
    padic_sums_via_orbits,
    prefetch_gamma_p,
    series_residues,
)
from .params import HGParams

# The errors a check raises instead of reporting: its instance violates a
# precondition, or its work would exceed a resource bound.
PRECONDITION_ERRORS = (AssumptionFails, BadPrime, BoundExceeded, DoesNotSplit, FieldTooLarge,
                       NotPrime)


class CheckReport(Value):
    """One check's verdict: "pass", "fail" or "inconclusive", with an
    optional witness dict and the time taken.  A Value that stays mutable,
    so unhashable."""

    __slots__ = _fields = ("check", "instance", "verdict", "witness", "millis")
    __hash__ = None
    __setattr__ = object.__setattr__

    def __init__(self, check, instance, verdict, witness=None, millis=0):
        self._init(check, instance, verdict, witness, millis)

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_json(self):
        out = {"check": self.check, "instance": self.instance, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        out["millis"] = self.millis
        return out

    def __str__(self):
        return json.dumps(self.to_json(), sort_keys=True)


def _report(check, instance, start, failures):
    millis = int((time.perf_counter() - start) * 1000)
    if failures:
        return CheckReport(check, instance, "fail", {"failures": failures}, millis)
    return CheckReport(check, instance, "pass", None, millis)


def _cyclo_str(v):
    r = v.as_rational()
    return str(r) if r is not None else repr(v)


# --------------------------------------------------------------- the checks


def _all_units(field, ts):
    """ts as a list, or every unit of field when ts is None."""
    return list(ts) if ts is not None else [field.unit(j) for j in range(field.q - 1)]


def _compare_per_t(check, instance, field, ts, routes):
    """Evaluate the two routes, a {witness key: function of a list of t}
    mapping, at every t of ts (default: every unit of field), each in one
    list read, and report each t where they differ, with both values under
    their keys."""
    start = time.perf_counter()
    ts = _all_units(field, ts)
    (key_a, values_a), (key_b, values_b) = ((key, route(ts)) for key, route in routes.items())
    failures = [{"t": repr(field.elem(t)), key_a: _cyclo_str(a), key_b: _cyclo_str(b)}
                for t, a, b in zip(ts, values_a, values_b) if a != b]
    return _report(check, instance, start, failures)


def _subject(arg):
    """How a report names the first argument of its check: an instance by
    its description, a character by its algebra and exponents, anything
    else by its repr."""
    if isinstance(arg, HGAlgebraInstance):
        return f"{arg.describe()}"
    if isinstance(arg, AlgebraChar):
        return f"{arg.algebra!r} exps={list(arg.exponents)}"
    return repr(arg)


def check_fourier(inst, ts=None, twist=1):
    """Norm-equation sum equals its character expansion, exactly, per t."""
    return _compare_per_t("fourier", _subject(inst), inst.base, ts, {
        "direct": lambda ts: algebra_sums_direct(inst, ts, twist),
        "fourier": lambda ts: algebra_sums_fourier(inst, ts, twist),
    })


def check_example_recovery(params, q, ts=None):
    """Split-algebra sum reproduces the classic series, exactly, per t."""
    inst = split_instance(params, q)
    return _compare_per_t("example_recovery", f"{params!r} q={q}", inst.base, ts, {
        "classic": lambda ts: classic_sums(params, q, ts),
        "algebra": lambda ts: algebra_sums_direct(inst, ts),
    })


def check_gauss_norm(chi_a):
    """|g_A(chi)|^2 is exactly q^f with f the predicted degree count."""
    start = time.perf_counter()
    f = gauss_norm_exponent(chi_a)
    return _report("gauss_norm", f"{_subject(chi_a)} f={f}", start, [])


def check_zeta_p_independence(inst, ts=None):
    """Equi-dimensional sums are unchanged by every additive-character twist
    a = 2..p-1 (twist 1 is the reference itself)."""
    if not inst.is_equidimensional:
        raise AssumptionFails("this check requires dim A = dim B")
    start = time.perf_counter()
    base = inst.base
    ts = _all_units(base, ts)
    refs = algebra_sums_direct(inst, ts)
    twisted = [(a, algebra_sums_direct(inst, ts, a)) for a in range(2, base.p)]
    failures = [{"t": repr(base.elem(t)), "twist": a,
                 "value": _cyclo_str(values[i]), "reference": _cyclo_str(ref)}
                for i, (t, ref) in enumerate(zip(ts, refs))
                for a, values in twisted if values[i] != ref]
    return _report("zeta_p_independence", _subject(inst), start, failures)


def check_omega_independence(params, q, ts=None):
    """The classic series does not depend on which unit generates omega."""
    field = make_field(*prime_power(q))
    try:
        alt = field.nth_generator(1)
    except LengthMismatch:
        return CheckReport("omega_independence", f"{params!r} q={q} (single generator)", "pass")
    return _compare_per_t("omega_independence", f"{params!r} q={q}", field, ts, {
        "default": lambda ts: classic_sums(params, q, ts),
        "alternate": lambda ts: classic_sums(params, q, ts, generator=alt),
    })


def _lift_coprime(k, d, n):
    """Residue congruent to k mod d and coprime to n."""
    kk = k % d or d
    while gcd(kk, n) != 1:
        kk += d
    return kk


def check_fixed_field(params, p, ts=None):
    """Values of the orbit-built instance lie in the fixed field of the
    parameter stabilizer: fixed by exactly the stabilizer twists, moved by
    others (negative control), and expressible over Q(zeta_D).  The twist
    k = 1 is skipped: its conjugate instance is the instance itself."""
    start = time.perf_counter()
    inst = orbit_instance(params, p)
    base = inst.base
    d = params.common_denominator()
    stab = set(params.stabilizer())
    units_d = params._units()
    big = lcm(*(c.q - 1 for c in inst.A.components + inst.B.components))
    ts = _all_units(base, ts)
    conj_values = {}
    for k in units_d:
        if k != 1:
            kk = _lift_coprime(k, d, big)
            c_inst = HGAlgebraInstance(inst.A, inst.B, inst.chiA.power(kk), inst.chiB.power(kk))
            conj_values[k] = kk, algebra_sums_direct(c_inst, ts)
    failures = []
    control_needed = len(stab) < len(units_d)
    control_seen = False
    for i, (t, v) in enumerate(zip(ts, algebra_sums_direct(inst, ts))):
        v_big = v.is_in_subfield(big)
        if v_big is None:
            failures.append({"t": repr(base.elem(t)), "error": "value not free of zeta_p"})
            continue
        v_d = v_big.is_in_subfield(d)
        if v_d is None:
            failures.append({"t": repr(base.elem(t)), "error": "value not in Q(zeta_D)"})
            continue
        for k, (kk, values) in conj_values.items():
            w = values[i]
            conj_val = v_big.galois(kk)
            if conj_val != w:
                failures.append(
                    {"t": repr(base.elem(t)), "k": k,
                     "error": "galois image is not the conjugate-character value"}
                )
            if k in stab:
                if w != v:
                    failures.append(
                        {"t": repr(base.elem(t)), "k": k,
                         "error": "stabilizer twist moved the value"}
                    )
            elif conj_val != v_big:
                control_seen = True
    if control_needed and not control_seen:
        failures.append(
            {"error": "negative control never fired: no twist outside the "
                      "stabilizer moved any value"}
        )
    return _report("fixed_field", f"{params!r} p={p} stabilizer={sorted(stab)}", start, failures)


def check_gp_equals_hp(params, p, ts=None, prec=6):
    """p-adic sum against the embedded complex sum, or against the orbit
    route when the divisibility assumption fails at q = p.  Both sides are
    known modulo p^(prec - delta); at prec <= delta that says nothing and
    the verdict is inconclusive."""
    delta = params.denominator_exponent()
    k = prec - delta
    assumption = (p - 1) % params.common_denominator() == 0
    mode = "embedding" if assumption else "orbit-route"
    instance = f"{params!r} p={p} prec={prec} via {mode}"
    if k <= 0:
        witness = {"prec": prec, "delta": delta}
        return CheckReport("gp_equals_hp", instance, "inconclusive", witness)
    start = time.perf_counter()
    ts = list(ts) if ts is not None else list(range(1, p))
    gps = padic_sums_direct(params, p, ts, prec)
    if assumption:
        others = [v.is_in_subfield(p - 1) for v in classic_sums(params, p, ts)]
    else:
        others = padic_sums_via_orbits(params, p, ts, prec)
    failures = []
    for t, gp, other in zip(ts, gps, others):
        if other is None:
            failures.append({"t": t, "error": "complex value not in Q(zeta_(p-1))"})
            continue
        if assumption:
            other = embed_cyclotomic(other, p, prec)
        if not gp.eq_mod(other, k):
            failures.append({"t": t, "direct": repr(gp), "other": repr(other)})
    return _report("gp_equals_hp", instance, start, failures)


def check_integrality_delta(params, p, ts=None, prec=6):
    """p^delta times the p-adic sum is provably a p-adic integer."""
    start = time.perf_counter()
    delta = params.denominator_exponent()
    ts = list(ts) if ts is not None else list(range(1, p))
    failures = []
    for t, v in zip(ts, padic_sums_direct(params, p, ts, prec)):
        if v.valuation_lower_bound() < -delta:
            failures.append({"t": t, "valuation": v.valuation, "delta": delta})
    return _report("integrality_delta", f"{params!r} p={p} delta={delta}", start, failures)


MAIN_THEOREM_PRECS = (6, 8)


def check_main_theorem(params, p, t):
    """Certificate that p^Delta times the sum is an algebraic integer:
    the characteristic polynomial over the stabilizer cosets has integer
    coefficient lifts that are stable across the working precisions
    MAIN_THEOREM_PRECS."""
    start = time.perf_counter()
    if not params.splits_at(p):
        raise DoesNotSplit(f"p = {p} does not split for {params!r}")
    d = params.common_denominator()
    stab = set(params.stabilizer())
    reps, seen = [], set()
    for k in params._units():
        if k % d not in seen:
            reps.append(k)
            seen.update(k * h % d for h in stab)
    cap = params.global_denominator_exponent()
    conj_params = [params.conjugate(k) for k in reps]

    failures = []
    lifts_per_prec = {}
    for prec in MAIN_THEOREM_PRECS:
        prefetch_gamma_p([r for pk in conj_params for r in series_residues(pk, p, prec)],
                         p, prec)
        roots = [
            PadicNum.from_rational(p**cap, p, prec) * padic_sum_direct(pk, p, t, prec)
            for pk in conj_params
        ]
        poly = [PadicNum.from_rational(1, p, prec)]
        for r in roots:
            nxt = [PadicNum.exact_zero(p) for _ in range(len(poly) + 1)]
            for i, c in enumerate(poly):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] + c * (-r)
            poly = nxt
        lifts = []
        for i, c in enumerate(poly[:-1]):
            if c.valuation_lower_bound() < 0:
                failures.append(
                    {"prec": prec, "coefficient": i, "valuation": c.valuation,
                     "error": "coefficient is not a p-adic integer"}
                )
                lifts.append(None)
            else:
                lifts.append(c.centered_lift())
        lifts_per_prec[prec] = lifts
    values = list(lifts_per_prec.values())
    for other in values[1:]:
        if other != values[0]:
            failures.append(
                {"error": "coefficient lifts differ across precisions",
                 "lifts": {str(k): v for k, v in lifts_per_prec.items()}}
            )
            break
    instance = (
        f"{params!r} p={p} t={t} Delta={cap} cosets={reps} "
        f"prec={list(MAIN_THEOREM_PRECS)} lifts={values[0]}"
    )
    return _report("main_theorem", instance, start, failures)


# ------------------------------------------------------------ default suite


FIXED_PARAMETER_SETS = (
    ("1/2", "0"),
    ("1/2,1/2", "0,0"),
    ("1/2,1/2,1/2", "0,0,0"),
    ("1/3,2/3", "0,0"),
    ("1/4,3/4", "0,1/2"),
    ("1/4,1/2,3/4", "0,0,0"),
    ("1/6,5/6", "0,1/2"),
    ("1/3,2/3", "1/2,1/2"),
    ("1/12,5/12,7/12,11/12", "0,0,0,0"),
    ("1/6", "1/2"),
)


_FIXED_PARAMS = []  # filled by the first call, not at import


def fixed_params():
    """The parsed FIXED_PARAMETER_SETS, parsed once: HGParams are immutable
    values, so every call shares them, in a new list that a caller may
    extend."""
    if not _FIXED_PARAMS:
        _FIXED_PARAMS.extend(HGParams.parse(a, b) for a, b in FIXED_PARAMETER_SETS)
    return list(_FIXED_PARAMS)


def random_algebra_instance(rng, q, max_size=81, equidim=False):
    """A random semisimple instance over F_q with |A|, |B| <= max_size."""
    p, f = prime_power(q)

    def degrees():
        out = []
        budget_dim = 0
        while True:
            limit = 1
            while q ** (budget_dim + limit + 1) <= max_size:
                limit += 1
            d = rng.randint(1, limit)
            out.append(d)
            budget_dim += d
            if q ** (budget_dim + 1) > max_size or rng.random() < 0.4:
                return out

    da = degrees()
    db = degrees() if not equidim else None
    if equidim:
        db = []
        remaining = sum(da)
        while remaining:
            d = rng.randint(1, remaining)
            db.append(d)
            remaining -= d
    base = make_field(p, f)
    A = SemisimpleAlgebra(base, [make_field(p, f * d) for d in da])
    B = SemisimpleAlgebra(base, [make_field(p, f * d) for d in db])
    chiA = AlgebraChar.from_exponents(A, [rng.randrange(c.q - 1) for c in A.components])
    chiB = AlgebraChar.from_exponents(B, [rng.randrange(c.q - 1) for c in B.components])
    return HGAlgebraInstance(A, B, chiA, chiB)


def random_params(rng):
    """A random disjoint parameter pair of length at most 3."""
    dens = (2, 3, 4, 5, 6, 8)
    while True:
        d = rng.randint(1, 3)
        alpha = []
        beta = []
        for _ in range(d):
            den = rng.choice(dens)
            alpha.append(Fraction(rng.randrange(den), den))
            den = rng.choice(dens)
            beta.append(Fraction(rng.randrange(den), den))
        if not ({x % 1 for x in alpha} & {x % 1 for x in beta}):
            return HGParams(alpha, beta)


def run_full_suite(seed=1, checks=None):
    """The default battery, with fixed sizes; deterministic per seed.  A
    check that raises a FinHypError outside PRECONDITION_ERRORS has met a
    defect: it is reported as a failed check, with the error as its
    witness, and the battery goes on; its instance names the first argument
    as the check does and every other argument as name=value."""
    rng = Random(seed)
    reports = []
    want = None if checks in (None, "all", ["all"]) else set(checks)

    def due(name):
        return want is None or name in want

    def run(check, *args, **kwargs):
        start = time.perf_counter()
        try:
            reports.append(check(*args, **kwargs))
        except PRECONDITION_ERRORS:
            raise
        except FinHypError as e:
            millis = int((time.perf_counter() - start) * 1000)
            names = check.__code__.co_varnames[1:check.__code__.co_argcount]
            rest = [*zip(names, args[1:]), *kwargs.items()]
            instance = " ".join([_subject(args[0])] + [f"{k}={v!r}" for k, v in rest])
            witness = {"error": f"{type(e).__name__}: {e}"}
            reports.append(CheckReport(check.__name__.removeprefix("check_"), instance,
                                       "fail", witness, millis))

    if due("fourier"):
        for q in (3, 5, 7, 9):
            for _ in range(2):
                run(check_fourier, random_algebra_instance(rng, q, max_size=81))
    if due("example_recovery"):
        for params in fixed_params():
            for q in (5, 7):
                if (q - 1) % params.common_denominator() == 0:
                    run(check_example_recovery, params, q)
    if due("gauss_norm"):
        for _ in range(10):
            q = rng.choice((3, 5, 7, 9))
            run(check_gauss_norm, random_algebra_instance(rng, q, max_size=81).chiA)
    if due("zeta_p_independence"):
        for _ in range(4):
            q = rng.choice((3, 5, 7))
            run(check_zeta_p_independence,
                random_algebra_instance(rng, q, max_size=64, equidim=True))
    if due("omega_independence"):
        for params, q in ((fixed_params()[1], 5), (fixed_params()[3], 7)):
            run(check_omega_independence, params, q)
    if due("fixed_field"):
        run(check_fixed_field, HGParams.parse("1/5,4/5", "0,0"), 11)
        run(check_fixed_field, HGParams.parse("1/2,1/2", "0,0"), 5)
    if due("gp_equals_hp"):
        for params in fixed_params():
            for p in (5, 13):
                if (p - 1) % params.common_denominator() == 0:
                    run(check_gp_equals_hp, params, p, prec=6)
        run(check_gp_equals_hp, HGParams.parse("1/5,2/5,3/5,4/5", "0,0,0,0"), 7, prec=6)
    if due("integrality_delta"):
        for _ in range(10):
            p = rng.choice((3, 5, 7, 11, 13))
            params = random_params(rng)
            while params.common_denominator() % p == 0:
                params = random_params(rng)
            run(check_integrality_delta, params, p, ts=[1, 2], prec=4)
    if due("main_theorem"):
        run(check_main_theorem, HGParams.parse("1/5,4/5", "0,0"), 11, 1)
        run(check_main_theorem, HGParams.parse("1/2,1/2", "0,0"), 13, 2)
    return reports


CHECK_NAMES = (
    "fourier",
    "example_recovery",
    "gauss_norm",
    "zeta_p_independence",
    "omega_independence",
    "fixed_field",
    "gp_equals_hp",
    "integrality_delta",
    "main_theorem",
)
