"""The exact output gate behind `failed` and `failed_frac`.

An op fails when it raised (any exception, `BoundExceeded` included), or
returned a wrong value, or returned a `CheckReport` that did not pass.

* Cyclotomic values are compared with `CycloNum.__eq__`, never by hash or
  set membership: equal values at different conductors hash differently.
* p-adic values are compared with `eq_mod` at the precision the result
  carries.  A result with no digits (absolute precision <= 0) fails.
* For the seeds in perfbench/reference/ each output is compared with the
  stored value.  For any other seed it is checked along the independent
  route that the op's `check_*` function uses, or that the identity behind
  the op gives where no `check_*` covers it (Gross-Koblitz for `gamma_p` and
  `gauss_sum_padic`, Jacobi sums for `greene_factor`).  A value an earlier
  op of the pass computed along that route is reused instead of recomputed.

The gate runs in its own worker, after every timed pass has ended.
"""

import json
from fractions import Fraction
from math import lcm
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload, seed):
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


# ------------------------------------------------------------ serialising


def serialize(value):
    """A JSON form of an op's output; the inverse of `deserialize`."""
    from finhyp.checks import CheckReport
    from finhyp.cyclo import CycloNum
    from finhyp.padic import PadicNum, PiExp

    if isinstance(value, CycloNum):
        return {"kind": "cyclo", **value.to_json()}
    if isinstance(value, PadicNum):
        return {"kind": "padic", **value.to_json()}
    if isinstance(value, PiExp):
        return {"kind": "piexp", "p": value.p, "prec": value.prec,
                "e": str(value.e), "u": value.u}
    if isinstance(value, CheckReport):
        return {"kind": "check", **value.to_json()}
    raise TypeError(f"cannot serialise {type(value).__name__}")


def deserialize(obj):
    from finhyp.cyclo import CycloNum
    from finhyp.padic import PadicNum, PiExp

    kind = obj["kind"]
    if kind == "cyclo":
        return CycloNum.from_json(obj)
    if kind == "padic":
        return PadicNum.from_json(obj)
    if kind == "piexp":
        return PiExp(obj["p"], obj["prec"], Fraction(obj["e"]), obj["u"])
    raise ValueError(f"no value to compare in a {kind!r} output")


# ------------------------------------------------------------- comparison


def padic_equal(out, ref):
    from finhyp.errors import InternalInconsistency

    if out.exact or ref.exact:
        return out.exact and ref.exact
    if out.abs_prec <= 0:
        return False
    try:
        return out.eq_mod(ref, min(out.abs_prec, ref.abs_prec))
    except InternalInconsistency:
        return False


def values_equal(out, ref):
    from finhyp.cyclo import CycloNum
    from finhyp.padic import PadicNum, PiExp

    if isinstance(out, CycloNum) and isinstance(ref, CycloNum):
        return out == ref
    if isinstance(out, PadicNum) and isinstance(ref, PadicNum):
        return padic_equal(out, ref)
    if isinstance(out, PiExp) and isinstance(ref, PiExp):
        prec = min(out.prec, ref.prec)
        return prec > 0 and out.e == ref.e and (out.u - ref.u) % out.p**prec == 0
    return False


# ------------------------------------------------------ independent routes


def _descend(v, m):
    """Re-express v over Q(zeta_m), or None if it does not lie there."""
    if v.conductor % m == 0:
        return v.is_in_subfield(m)
    if m % v.conductor == 0:
        return v.embed(m)
    return v.embed(lcm(v.conductor, m)).is_in_subfield(m)


def _params(op):
    from finhyp.params import HGParams

    return HGParams.parse(*op["params"])


def _divisible(params, p):
    return all(((p - 1) * x).denominator == 1 for x in params.alpha + params.beta)


def _embedded_classic(op):
    """check_gp_equals_hp's route: the complex sum, embedded in Z_p."""
    from finhyp.hypergeometric import classic_sum
    from finhyp.padic import embed_cyclotomic

    p = op["p"]
    v = _descend(classic_sum(_params(op), p, op["t"]), p - 1)
    return None if v is None else embed_cyclotomic(v, p, op["prec"])


def _gauss_power(p, m, prec):
    """g(chi_m)^(p-1) over F_p, exactly, then embedded in Z_p.

    Gross-Koblitz gives gauss_sum_padic(p, 1, m)^(p-1) = (-p)^m Gamma_p(m/(p-1))^(p-1)
    for 0 < m < p - 1; the left side is independent of the choice of zeta_p.
    """
    from finhyp.charsums import MultChar, gauss_sum
    from finhyp.finfield import make_field
    from finhyp.padic import embed_cyclotomic

    g = gauss_sum(MultChar(make_field(p), m))
    v = _descend(g ** (p - 1), p - 1)
    return None if v is None else embed_cyclotomic(v, p, prec + m)


def _jacobi_greene(params, q):
    """greene_factor through Jacobi sums J(chi_a, chi_-b), each summed over F_q."""
    from finhyp.cyclo import CycloNum, root_of_unity
    from finhyp.finfield import make_field, factorize

    ((p, f),) = factorize(q).items()
    field = make_field(p, f)
    qbar = q - 1
    one = field.one()
    out = CycloNum.one(1)
    for a, b in zip(params.alpha, params.beta):
        ea, eb = int(qbar * a), int(-qbar * b)
        weights = {}
        for j in range(qbar):
            y = one - field.unit(j)
            if y.is_zero():
                continue
            c = (ea * j + eb * field.dlog(y)) % qbar
            weights[c] = weights.get(c, 0) + 1
        out = out * CycloNum.from_powers(qbar, weights)
    beta_weight = sum(params.beta) * qbar
    sign = root_of_unity(qbar, field.minus_one_dlog * int(beta_weight))
    return sign * out * Fraction(1, q**params.d)


class Gate:
    """Checks every output of one or more passes over the same op list."""

    def __init__(self, workload, seed, ops, use_stored=True):
        self.workload = workload
        self.ops = ops
        path = reference_path(workload, seed)
        self.stored = (json.loads(path.read_text())
                       if use_stored and path.is_file() else None)
        self._same_quantity = {}
        self._cache = {}

    # The first pass's outputs stand in for a route an op would otherwise
    # need recomputed: key -> route -> value.
    def _remember(self, outputs):
        for op, out in zip(self.ops, outputs):
            if out.get("kind") in ("cyclo", "padic"):
                key, route = self._quantity(op)
                self._same_quantity.setdefault(key, {}).setdefault(route, out)

    @staticmethod
    def _quantity(op):
        fn = op["fn"]
        if fn in ("padic_sum_direct", "padic_sum_via_orbits"):
            return ("psum", tuple(op["params"]), op["p"], op["t"], op["prec"]), fn
        if fn in ("classic_sum", "algebra_sum_fourier", "algebra_sum_direct"):
            return ("csum", tuple(op["params"]), op["q"], op["t"]), fn
        return (fn, json.dumps(op, sort_keys=True)), fn

    def _route_value(self, op, route):
        """The value of op's quantity along another route, reused if a
        pass computed it."""
        key, _ = self._quantity(op)
        seen = self._same_quantity.get(key, {}).get(route)
        if seen is not None:
            return deserialize(seen)
        ck = (key, route)
        if ck not in self._cache:
            self._cache[ck] = self._compute(op, route)
        return self._cache[ck]

    def _compute(self, op, route):
        from finhyp import hypergeometric as hyp
        from finhyp import padic

        if route == "padic_sum_via_orbits":
            return padic.padic_sum_via_orbits(_params(op), op["p"], op["t"],
                                              op["prec"], op["max_pn"])
        if route == "padic_sum_direct":
            return padic.padic_sum_direct(_params(op), op["p"], op["t"],
                                          op["prec"], op["max_pn"])
        if route == "embedded_classic":
            return _embedded_classic(op)
        inst = hyp.split_instance(_params(op), op["q"])
        if route == "algebra_sum_direct":
            return hyp.algebra_sum_direct(inst, op["t"])
        if route == "classic_sum":
            return hyp.classic_sum(_params(op), op["q"], op["t"])
        raise ValueError(route)

    def _independent_ok(self, op, value):
        """Check value along the route that the op's check_* uses."""
        from finhyp.charsums import algebra_gauss_sum
        from finhyp.hypergeometric import split_instance
        from finhyp.padic import PadicNum

        fn = op["fn"]
        if fn in ("padic_sum_direct", "padic_sum_via_orbits"):
            if _divisible(_params(op), op["p"]):
                ref = self._route_value(op, "embedded_classic")
            else:
                other = ("padic_sum_via_orbits" if fn == "padic_sum_direct"
                         else "padic_sum_direct")
                ref = self._route_value(op, other)
            return ref is not None and values_equal(value, ref)
        if fn in ("gamma_p", "gauss_sum_padic"):
            p, prec = op["p"], op["prec"]
            if fn == "gamma_p":
                m = Fraction(op["x"]) * (p - 1)
                if m.denominator != 1 or not 0 < m < p - 1:
                    raise ValueError("gamma_p ops take k/(p-1), 0 < k < p-1")
                m = int(m)
                lhs = PadicNum.from_rational((-p) ** m, p, prec + m) * value ** (p - 1)
            else:
                m = op["m"] % (p - 1)
                g = value
                for _ in range(p - 2):
                    g = g * value
                lhs = g.to_padic()
            ref = _gauss_power(p, m, prec)
            return ref is not None and padic_equal(lhs, ref)
        if fn in ("classic_sum", "algebra_sum_fourier"):
            # check_example_recovery / check_fourier: against the direct route
            return value == self._route_value(op, "algebra_sum_direct")
        if fn == "algebra_sum_direct":
            return value == self._route_value(op, "classic_sum")
        if fn == "katz_unnormalized":
            inst = split_instance(_params(op), op["q"])
            direct = self._route_value(op, "algebra_sum_direct")
            return value == (direct * algebra_gauss_sum(inst.chiA)
                             * algebra_gauss_sum(inst.chiB.conj()))
        if fn == "greene_factor":
            return value == _jacobi_greene(_params(op), op["q"])
        raise ValueError(f"no gate for op {fn!r}")

    # ---------------------------------------------------------------- api

    def check_pass(self, outputs):
        """Per op of one pass: True if its output is correct."""
        if self.workload == "verify":
            return self._check_verify(outputs)
        self._remember(outputs)
        ok = []
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            if out.get("kind") == "error":
                ok.append(False)
                continue
            value = deserialize(out)
            if self.stored is not None:
                ok.append(values_equal(value, deserialize(self.stored["outputs"][i])))
                continue
            try:
                ok.append(bool(self._independent_ok(op, value)))
            except Exception:  # the independent route itself failed
                ok.append(False)
        return ok

    def _check_verify(self, outputs):
        """verify ops are check_* calls: each CheckReport must pass, the
        command must exit 0, and on a stored seed the sequence of checks
        and verdicts must be the stored one."""
        reports, status = outputs["reports"], outputs["status"]
        ok = [r.get("kind") == "check" and r.get("verdict") == "pass" for r in reports]
        if self.stored is not None:
            want = self.stored["checks"]
            got = [[r.get("check"), r.get("verdict")] for r in reports]
            ok = [k and i < len(want) and got[i] == want[i] for i, k in enumerate(ok)]
            ok += [False] * (len(want) - len(ok))
        if status != 0:
            ok.append(False)
        return ok
