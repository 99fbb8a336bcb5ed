"""Command-line front end.

Subcommands: hq (complex-side sums), gp (p-adic sums), gauss (Gauss sums
exact and p-adic), delta (parameter combinatorics), verify (check suite).

Exit codes: 0 success / all checks pass, 1 check failure or value
disagreement, 2 usage error, 3 resource bound exceeded.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .charsums import MultChar, gauss_sum
from .checks import CHECK_NAMES, run_full_suite
from .errors import BadPrecision, BoundExceeded, FieldTooLarge, FinHypError
from .finfield import make_field
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


@dataclass
class RunConfig:
    """Validated command parameters, built once before dispatch."""

    command: str
    params: HGParams = None
    q: int = None
    p: int = None
    f: int = None
    t: int = None
    all_t: bool = False
    m: int = None
    prec: int = None
    route: str = "direct"
    algebra: str = None
    max_pn: int = None
    max_q: int = 9
    max_p: int = 13
    prec_list: tuple = (6, 8)
    seed: int = 1
    checks: str = "all"
    as_json: bool = False


def _precision(arg):
    """--prec if given, else FINHYP_PREC, else 6; a positive integer."""
    raw = os.environ.get("FINHYP_PREC", "6") if arg is None else arg
    try:
        prec = int(raw)
    except ValueError:
        raise BadPrecision(f"FINHYP_PREC must be an integer, not {raw!r}") from None
    if prec < 1:
        raise BadPrecision(f"precision must be a positive integer, not {prec}")
    return prec


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
    sp.add_argument("--algebra", choices=["split", "orbits"])
    sp.add_argument("--p", type=int, help="prime for --algebra orbits")
    add_json(sp)

    sp = sub.add_parser("gp", help="p-adic hypergeometric sum")
    add_params(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--t", type=int)
    sp.add_argument("--all-t", action="store_true")
    sp.add_argument("--prec", type=int)
    sp.add_argument("--route", choices=["direct", "algebra", "both"], default="direct")
    sp.add_argument("--max-pn", type=int)
    add_json(sp)

    sp = sub.add_parser("gauss", help="Gauss sums, exact and via p-adic Gamma")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--m", type=int, required=True, help="character exponent")
    sp.add_argument("--prec", type=int)
    sp.add_argument("--max-pn", type=int)
    add_json(sp)

    sp = sub.add_parser("delta", help="parameter combinatorics report")
    add_params(sp)
    sp.add_argument("--p", type=int, help="prime for orbit and exponent tables")
    add_json(sp)

    sp = sub.add_parser("verify", help="run named checks or the full suite")
    sp.add_argument("--check", default="all", help="|".join(("all",) + CHECK_NAMES))
    sp.add_argument("--max-q", type=int, default=9)
    sp.add_argument("--max-p", type=int, default=13)
    sp.add_argument("--prec-list", default="6,8")
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


def _t_values(cfg, field):
    if cfg.all_t:
        return [field.unit(j).to_int() for j in range(field.q - 1)]
    if cfg.t is None:
        raise FinHypError("need --t or --all-t")
    return [cfg.t]


def cmd_hq(cfg):
    field = make_field(*_pf(cfg.q))
    results = []
    for t in _t_values(cfg, field):
        if cfg.algebra == "split":
            inst = split_instance(cfg.params, cfg.q)
            v = algebra_sum_direct(inst, field.elem(t))
        elif cfg.algebra == "orbits":
            p = cfg.p or cfg.q
            inst = orbit_instance(cfg.params, p)
            v = algebra_sum_fourier(inst, inst.base.elem(t))
        else:
            v = classic_sum(cfg.params, cfg.q, field.elem(t))
        results.append({"t": t, "value": _cyclo_payload(v)})
    _emit({"schema": SCHEMA, "command": "hq", "q": cfg.q, "results": results}, cfg.as_json)
    return 0


def cmd_gp(cfg):
    results = []
    status = 0
    delta = cfg.params.denominator_exponent()
    for t in _t_values(cfg, make_field(cfg.p)):
        entry = {"t": t}
        if cfg.route in ("direct", "both"):
            v = padic_sum_direct(cfg.params, cfg.p, t, cfg.prec, cfg.max_pn)
            entry["direct"] = v.to_json() | {"expansion": repr(v)}
        if cfg.route in ("algebra", "both"):
            w = padic_sum_via_orbits(cfg.params, cfg.p, t, cfg.prec, cfg.max_pn)
            entry["algebra"] = w.to_json() | {"expansion": repr(w)}
        if cfg.route == "both":
            agree = v.eq_mod(w, cfg.prec - delta)
            entry["agree"] = agree
            if not agree:
                status = CHECK_FAILURE
        results.append(entry)
    _emit(
        {"schema": SCHEMA, "command": "gp", "p": cfg.p, "prec": cfg.prec,
         "delta": delta, "results": results},
        cfg.as_json,
    )
    return status


def cmd_gauss(cfg):
    field = make_field(cfg.p, cfg.f)
    exact = gauss_sum(MultChar(field, cfg.m))
    pi = gauss_sum_padic(cfg.p, cfg.f, cfg.m, cfg.prec, cfg.max_pn)
    payload = {
        "schema": SCHEMA,
        "command": "gauss",
        "field": field.describe(),
        "m": cfg.m,
        "exact": _cyclo_payload(exact),
        "gross_koblitz": {
            "pi_exponent": str(pi.e),
            "unit_mod_p^prec": pi.u,
            "prec": cfg.prec,
        },
    }
    _emit(payload, cfg.as_json)
    return 0


def cmd_delta(cfg):
    params = cfg.params
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
    if cfg.p:
        p = cfg.p
        payload["p"] = p
        payload["splits"] = params.splits_at(p)
        if d % p != 0:
            payload["lambda"] = [params.term_exponent(p, m) for m in range(p - 1)]
        if params.splits_at(p):
            ao, bo = params.p_orbits(p)
            payload["alpha_orbits"] = [
                {"rep": str(o.rep), "length": o.length} for o in ao
            ]
            payload["beta_orbits"] = [
                {"rep": str(o.rep), "length": o.length} for o in bo
            ]
    _emit(payload, cfg.as_json)
    return 0


def cmd_verify(cfg):
    prec_list = tuple(int(x) for x in cfg.prec_list)
    reports = run_full_suite(
        max_q=cfg.max_q, max_p=cfg.max_p, prec_list=prec_list,
        seed=cfg.seed, checks=[cfg.checks],
    )
    ok = True
    for r in reports:
        ok = ok and r.passed
        if cfg.as_json:
            print(json.dumps(r.to_json(), sort_keys=True, separators=(",", ":")))
        else:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.check}: {r.instance} ({r.millis}ms)")
            if r.witness:
                print(f"  witness: {json.dumps(r.witness)[:400]}")
    if not cfg.as_json:
        n_bad = sum(1 for r in reports if not r.passed)
        print(f"{len(reports)} checks, {n_bad} failures")
    return 0 if ok else CHECK_FAILURE


def _pf(q):
    from .finfield import factorize

    fac = factorize(q)
    if len(fac) != 1:
        raise FinHypError(f"{q} is not a prime power")
    ((p, f),) = fac.items()
    return p, f


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(command=args.command, as_json=getattr(args, "as_json", False))
        if hasattr(args, "alpha"):
            cfg.params = HGParams.parse(args.alpha, args.beta)
        for name in ("q", "p", "f", "t", "m", "route", "algebra",
                     "max_pn", "max_q", "max_p", "seed"):
            if hasattr(args, name) and getattr(args, name) is not None:
                setattr(cfg, name, getattr(args, name))
        cfg.all_t = getattr(args, "all_t", False)
        if hasattr(args, "prec"):
            cfg.prec = _precision(args.prec)
        if hasattr(args, "prec_list"):
            cfg.prec_list = tuple(s for s in str(args.prec_list).split(",") if s)
        if hasattr(args, "check"):
            cfg.checks = args.check
            if cfg.checks != "all" and cfg.checks not in CHECK_NAMES:
                parser.error(f"unknown check {cfg.checks!r}")
        handler = {
            "hq": cmd_hq,
            "gp": cmd_gp,
            "gauss": cmd_gauss,
            "delta": cmd_delta,
            "verify": cmd_verify,
        }[cfg.command]
        return handler(cfg)
    except (BoundExceeded, FieldTooLarge) as e:
        print(f"resource bound: {e}", file=sys.stderr)
        return RESOURCE_ERROR
    except FinHypError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
