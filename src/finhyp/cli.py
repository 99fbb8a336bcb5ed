"""Command-line front end.

Subcommands: hq (complex-side sums), gp (p-adic sums), gauss (Gauss sums
exact and p-adic), delta (parameter combinatorics), verify (check suite).

Exit codes: 0 success / all checks pass, 1 check failure, inconclusive
check or value disagreement, 2 usage error, 3 resource bound exceeded.
"""

import argparse
import json
import sys

from .charsums import MultChar, gauss_sum
from .checks import CHECK_NAMES, run_full_suite
from .errors import (
    BadPrecision,
    BoundExceeded,
    FieldTooLarge,
    FinHypError,
    NotPrime,
    OutOfRange,
)
from .finfield import is_prime, make_field, prime_power
from .hypergeometric import (
    algebra_sum_direct,
    algebra_sum_fourier,
    classic_sum,
    orbit_instance,
    split_instance,
)
from .padic import gauss_sum_padic, padic_sum_direct, padic_sum_via_orbits
from .params import HGParams

SCHEMA = "finhyp/1"

USAGE_ERROR = 2
CHECK_FAILURE = 1
RESOURCE_ERROR = 3


def _build_parser():
    top = argparse.ArgumentParser(prog="finhyp")
    sub = top.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("--alpha", required=True, help="comma separated fractions")
        sp.add_argument("--beta", required=True, help="comma separated fractions")

    def add_json(sp):
        sp.add_argument("--json", action="store_true", dest="as_json")

    sp = sub.add_parser("hq", help="finite hypergeometric sum over F_q")
    add_params(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--t", type=int, help="argument, as a base-p digit code")
    sp.add_argument("--all-t", action="store_true")
    sp.add_argument("--algebra", choices=["split", "orbits"],
                    help="split: the direct sum on d copies of F_q, D | q-1 required; "
                         "orbits: the expansion on the orbits of x -> q x, q prime to D")
    add_json(sp)

    sp = sub.add_parser("gp", help="p-adic hypergeometric sum")
    add_params(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--t", type=int)
    sp.add_argument("--all-t", action="store_true")
    sp.add_argument("--prec", type=int, default=6)
    sp.add_argument("--route", choices=["direct", "algebra", "both"], default="direct")
    add_json(sp)

    sp = sub.add_parser("gauss", help="Gauss sums, exact and via p-adic Gamma")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--m", type=int, required=True, help="character exponent")
    sp.add_argument("--prec", type=int, default=6)
    add_json(sp)

    sp = sub.add_parser("delta", help="parameter combinatorics report")
    add_params(sp)
    sp.add_argument("--p", type=int, help="prime for orbit and exponent tables")
    add_json(sp)

    sp = sub.add_parser("verify", help="run named checks or the full suite")
    names = ("all",) + CHECK_NAMES
    sp.add_argument("--check", default="all", choices=names, metavar="CHECK",
                    help="|".join(names))
    sp.add_argument("--seed", type=int, default=1)
    add_json(sp)
    return top


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return
    for line in _render(payload):
        print(line)


def _render(payload, indent=""):
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                yield f"{indent}{k}:"
                yield from _render(v, indent + "  ")
            else:
                yield f"{indent}{k}: {v}"
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                yield from _render(v, indent + "  ")
            else:
                yield f"{indent}- {v}"
    else:
        yield f"{indent}{payload}"


def _cyclo_payload(v):
    out = v.to_json()
    r = v.as_rational()
    out["rational"] = str(r) if r is not None else None
    return out


def _t_values(args, field):
    if args.all_t:
        return [field.unit(j).to_int() for j in range(field.q - 1)]
    if args.t is None:
        raise FinHypError("need --t or --all-t")
    if not 0 < args.t < field.q:  # a code is read mod q: refuse the aliases
        raise OutOfRange(f"--t {args.t} is outside 1..{field.q - 1}")
    return [args.t]


def cmd_hq(args):
    field = make_field(*prime_power(args.q))
    ts = _t_values(args, field)
    if args.algebra == "split":
        inst = split_instance(args.params, args.q)
        values = (algebra_sum_direct(inst, field.elem(t)) for t in ts)
    elif args.algebra == "orbits":
        inst = orbit_instance(args.params, args.q)
        values = (algebra_sum_fourier(inst, inst.base.elem(t)) for t in ts)
    else:
        values = (classic_sum(args.params, args.q, field.elem(t)) for t in ts)
    results = [{"t": t, "value": _cyclo_payload(v)} for t, v in zip(ts, values)]
    _emit({"schema": SCHEMA, "command": "hq", "q": args.q, "results": results}, args.as_json)
    return 0


def cmd_gp(args):
    results = []
    status = 0
    delta = args.params.denominator_exponent()
    for t in _t_values(args, make_field(args.p)):
        entry = {"t": t}
        if args.route in ("direct", "both"):
            v = padic_sum_direct(args.params, args.p, t, args.prec)
            entry["direct"] = v.to_json() | {"expansion": repr(v)}
        if args.route in ("algebra", "both"):
            w = padic_sum_via_orbits(args.params, args.p, t, args.prec)
            entry["algebra"] = w.to_json() | {"expansion": repr(w)}
        if args.route == "both":
            # at prec <= delta both sides are O(p^0): nothing to compare
            agree = v.eq_mod(w, args.prec - delta) if args.prec > delta else None
            entry["agree"] = agree
            if not agree:
                status = CHECK_FAILURE
        results.append(entry)
    _emit(
        {"schema": SCHEMA, "command": "gp", "p": args.p, "prec": args.prec,
         "delta": delta, "results": results},
        args.as_json,
    )
    return status


def cmd_gauss(args):
    field = make_field(args.p, args.f)
    exact = gauss_sum(MultChar(field, args.m))
    pi = gauss_sum_padic(args.p, args.f, args.m, args.prec)
    payload = {
        "schema": SCHEMA,
        "command": "gauss",
        "field": field.describe(),
        "m": args.m,
        "exact": _cyclo_payload(exact),
        "gross_koblitz": {
            "pi_exponent": str(pi.e),
            "unit_mod_p^prec": pi.u,
            "prec": args.prec,
        },
    }
    _emit(payload, args.as_json)
    return 0


def cmd_delta(args):
    params = args.params
    d = params.common_denominator()
    payload = {
        "schema": SCHEMA,
        "command": "delta",
        "alpha": [str(x) for x in params.alpha],
        "beta": [str(x) for x in params.beta],
        "common_denominator": d,
        "stabilizer": list(params.stabilizer()),
        "defined_over_Q": params.is_defined_over_q(),
        "delta": params.denominator_exponent(),
        "Delta": params.global_denominator_exponent(),
    }
    if args.p is not None:
        p = args.p
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        payload["p"] = p
        payload["splits"] = params.splits_at(p)
        if d % p != 0:
            payload["lambda"] = list(params.term_exponents(p))
        if params.splits_at(p):
            ao, bo = params.p_orbits(p)
            payload["alpha_orbits"] = [
                {"rep": str(o.rep), "length": o.length} for o in ao
            ]
            payload["beta_orbits"] = [
                {"rep": str(o.rep), "length": o.length} for o in bo
            ]
    _emit(payload, args.as_json)
    return 0


def cmd_verify(args):
    reports = run_full_suite(seed=args.seed, checks=[args.check])
    ok = True
    for r in reports:
        ok = ok and r.passed
        if args.as_json:
            print(json.dumps(r.to_json(), sort_keys=True, separators=(",", ":")))
        else:
            print(f"{r.verdict.upper()} {r.check}: {r.instance} ({r.millis}ms)")
            if r.witness:
                print(f"  witness: {json.dumps(r.witness)[:400]}")
    if not args.as_json:
        n_inconclusive = sum(1 for r in reports if r.verdict == "inconclusive")
        n_bad = sum(1 for r in reports if not r.passed) - n_inconclusive
        print(f"{len(reports)} checks, {n_bad} failures, {n_inconclusive} inconclusive")
    return 0 if ok else CHECK_FAILURE


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "alpha"):
            args.params = HGParams.parse(args.alpha, args.beta)
        if getattr(args, "prec", 1) < 1:
            raise BadPrecision(f"--prec: precision must be a positive integer, not {args.prec}")
        handler = {
            "hq": cmd_hq,
            "gp": cmd_gp,
            "gauss": cmd_gauss,
            "delta": cmd_delta,
            "verify": cmd_verify,
        }[args.command]
        return handler(args)
    except (BoundExceeded, FieldTooLarge) as e:
        print(f"resource bound: {e}", file=sys.stderr)
        return RESOURCE_ERROR
    except FinHypError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
