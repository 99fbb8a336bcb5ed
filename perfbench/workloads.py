"""The benchmark's workloads: fixed op lists generated from a seed.

Every workload is a closed loop with one client: one worker process with
one thread issues each op only after the previous one returns.  Each pass
over the op list runs in a fresh worker, because every `lru_cache` and the
Gamma_p cache in finhyp is process-global: a second pass in the same
process would time warm caches that no `finhyp` command-line user gets.

An op is a plain dict (JSON-serialisable).  The seed only chooses among
inputs of the same shape (parameter sets with the same length and the same
denominator structure, and the values of t, m and k), so the work per pass
is the same for every seed while the inputs differ.

Each workload records why it was chosen, which layers it loads and which it
bypasses, and its warm or cached-op share as measured on the reference
machine (see perfbench/README.md for the numbers and the predictions).
"""

from random import Random

# ---------------------------------------------------------------- verify

VERIFY_CLI_SEEDS = (1, 2, 10, 13, 21, 23, 24, 26, 30, 33, 43, 49, 56)


def verify_ops(seed):
    """verify workload.

    verify: `finhyp.cli.main(["verify", "--check", "all", "--json", "--seed", S])`
    in process, at the CLI defaults (max_q 9, max_p 13, prec 6 and 8).  One op
    is one `check_*` call; there are 66.
    Why: it is the ROADMAP's named end-to-end workload and the only one where
    `cli` and `checks` do any work.  It mixes both sides: Gamma_p sweeps in
    `padic` (two main_theorem checks, about 13 s of the 17 s, the larger at
    p = 13, N = 8) and about 4,600 small `CycloNum` multiplies at conductors
    <= 156.
    Loads: cli, checks, padic, cyclo, charsums, hypergeometric, finfield, params.
    Bypasses: nothing entirely; finfield stays small (q <= 13).
    Warm share: the two main_theorem checks and most gp_equals_hp and
    integrality checks reuse Gamma values that an earlier check swept; the
    traced run reports it as `padic.gamma.warm_op_share`.
    Seeds: S is VERIFY_CLI_SEEDS[seed % len(VERIFY_CLI_SEEDS)].  The CLI seed
    draws random algebra instances and parameters, and CLI seeds 1-80 differ by
    up to 8x in the time of their seed-dependent checks (2.8-22 s) and 3x in
    peak memory (17-56 MB).  These are the ones whose seed-dependent checks
    sit near the median in summed time (3.4-4.3 s), memory, and median and
    tail check time, each averaged over two runs of vet_verify_seeds.py."""
    cli_seed = VERIFY_CLI_SEEDS[seed % len(VERIFY_CLI_SEEDS)]
    return [{"fn": "verify", "argv": ["verify", "--check", "all", "--json",
                                      "--seed", str(cli_seed)]}]


# ---------------------------------------------------------- padic_family

# (p, N) in run order.  Each pair gets two parameter families whose
# denominators divide p - 1; the primes in PADIC_OTHER also get one whose
# denominators do not, but which still splits at p.  Each family lists the
# t at which its sum is exactly 0: a zero has no p-adic digits to compare,
# so the gate would count it as failed, and those t are never drawn.
PADIC_PAIRS = ((11, 7), (13, 7), (17, 6), (19, 6), (11, 8))

PADIC_DIVISIBLE = {
    11: (
        ("1/2,1/2", "0,0", (2, 6, 10)),
        ("1/5,4/5", "0,0", ()),
        ("2/5,3/5", "0,0", ()),
        ("1/10,9/10", "0,0", (6,)),
        ("3/10,7/10", "0,0", (6,)),
    ),
    13: (
        ("1/2,1/2", "0,0", ()),
        ("1/3,2/3", "0,0", ()),
        ("1/4,3/4", "0,0", (7,)),
        ("1/6,5/6", "0,0", (2, 12)),
        ("1/12,11/12", "0,0", (7,)),
    ),
    17: (
        ("1/2,1/2", "0,0", ()),
        ("1/4,3/4", "0,0", (7, 11)),
        ("1/8,7/8", "0,0", ()),
        ("3/8,5/8", "0,0", ()),
        ("1/16,15/16", "0,0", (9,)),
    ),
    19: (
        ("1/2,1/2", "0,0", (2, 10, 18)),
        ("1/3,2/3", "0,0", ()),
        ("1/6,5/6", "0,0", (10,)),
        ("1/9,8/9", "0,0", ()),
        ("2/9,7/9", "0,1/3", ()),
    ),
}

PADIC_OTHER = {
    13: (
        ("1/7,6/7", "0,0", (7,)),
        ("2/7,5/7", "0,0", (7,)),
        ("3/7,4/7", "0,0", (7,)),
    ),
    17: (
        ("1/3,2/3", "0,0", (2, 9, 16)),
        ("1/6,5/6", "0,0", ()),
        ("1/6,5/6", "1/3,2/3", (10, 12)),
    ),
    19: (
        ("1/5,4/5", "0,0", (10,)),
        ("2/5,3/5", "0,0", (10,)),
        ("1/4,3/4", "0,0", (3, 17)),
    ),
}


def padic_ops(seed):
    """padic_family workload.

    padic_family: `padic_sum_direct`, `padic_sum_via_orbits` (parameters that
    split at p), `gauss_sum_padic` over F_p and `gamma_p`, at (p, N) in
    11^7, 13^7, 17^6, 19^6, 11^8 with `max_pn = p^N` passed explicitly.
    Why: it is the `padic` layer almost alone, with the Gamma_p cache used as
    a library user meets it.  The first op at each (p, N) sweeps from 1 (0.8 s
    at 11^7 to 3.1 s at 11^8); later ops whose denominators divide p - 1 read
    cached values (about 1-4 ms).  Parameter sets with other denominators
    (1/7 at p = 13, 1/3 at p = 17, 1/5 at p = 19) force a second sweep.
    Loads: padic (Gamma_p sweeps, p-adic assembly).
    Bypasses: cyclo, charsums, hypergeometric (no complex-side work in the
    timed window; the output gate computes the complex side afterwards).
    Cached share: 56 of 64 ops read only cached Gamma values; the 8 cold ones
    are the first op at each (p, N) and the first op with other denominators.
    The traced run measures it as `padic.gamma.warm_op_share` (0.875)."""
    rng = Random(seed)
    ops = []
    for p, n in PADIC_PAIRS:
        common = {"p": p, "prec": n, "max_pn": p**n}

        def draw(families):
            alpha, beta, zeros = rng.choice(families)
            ts = rng.sample([t for t in range(1, p) if t not in zeros], 2)
            return [alpha, beta], ts

        def sum_op(fn, params, t):
            return {"fn": fn, "params": params, "t": t, **common}

        fam0, (t0, t1) = draw(PADIC_DIVISIBLE[p])
        fam1, (t2, t3) = draw([f for f in PADIC_DIVISIBLE[p] if list(f[:2]) != fam0])
        ops.append(sum_op("padic_sum_direct", fam0, t0))
        ops.append(sum_op("padic_sum_direct", fam0, t1))
        ops.append(sum_op("padic_sum_via_orbits", fam0, t0))
        ops.append(sum_op("padic_sum_direct", fam1, t2))
        ops.append(sum_op("padic_sum_via_orbits", fam1, t2))
        ops.append(sum_op("padic_sum_direct", fam1, t3))
        for k in rng.sample(range(1, p - 1), 2):
            ops.append({"fn": "gamma_p", "x": f"{k}/{p - 1}", **common})
        for m in rng.sample(range(1, p - 1), 2):
            ops.append({"fn": "gauss_sum_padic", "f": 1, "m": m, **common})
        if p in PADIC_OTHER:
            other, (t4, t5) = draw(PADIC_OTHER[p])
            ops.append(sum_op("padic_sum_direct", other, t4))
            ops.append(sum_op("padic_sum_via_orbits", other, t4))
            ops.append(sum_op("padic_sum_direct", other, t5))
            ops.append(sum_op("padic_sum_via_orbits", other, t5))
        else:
            ops.append(sum_op("padic_sum_via_orbits", fam0, t1))
    return ops


# ---------------------------------------------------------- complex_sums

# (q, routes of the slot, parameter set).  Each slot has one parameter set
# and its seeds differ in t only: the cold and warm costs of a (params, q)
# pair differ by up to 10x between parameter sets of the same shape (at
# q = 23 every d = 1 set other than (1/2; 0) costs 7-10x more), while the
# cost of an op does not depend on t.  The route lists put the median op
# well inside the group of 5-20 ms warm ops at q = 17, 19 and 27, and
# leave out greene_factor at q = 23, whose generic inverse at degree 220
# would be a lone op between the warm and the cold groups.
COMPLEX_SLOTS = (
    (17, ("classic", "classic", "classic", "classic", "fourier", "fourier", "fourier",
          "katz", "greene"), ("1/8,3/8", "0,1/2")),
    (19, ("classic", "classic", "classic", "classic", "fourier", "fourier", "fourier",
          "direct", "direct", "direct"), ("1/9,1/2,8/9", "0,0,0")),
    (23, ("classic", "classic", "classic", "fourier", "fourier", "katz"), ("1/2", "0")),
    (27, ("classic", "classic", "classic", "fourier", "fourier", "fourier", "direct",
          "direct", "katz", "greene"), ("1/13,1/2,12/13", "0,0,0")),
    (49, ("direct", "direct", "direct", "classic", "classic"), ("1/6,5/6", "0,1/2")),
    (81, ("direct", "direct", "direct"), ("1/8,1/2,7/8", "0,0,0")),
)

COMPLEX_FN = {
    "classic": "classic_sum",
    "fourier": "algebra_sum_fourier",
    "direct": "algebra_sum_direct",
    "katz": "katz_unnormalized",
    "greene": "greene_factor",
}


def complex_ops(seed):
    """complex_sums workload.

    complex_sums: `classic_sum` and `algebra_sum_fourier` on `split_instance`,
    plus `algebra_sum_direct`, `greene_factor` and `katz_unnormalized`, over
    prime q in 17, 19, 23 (conductor q(q-1), degree 108-220) and q in 27, 49,
    81, with d <= 3 and several t per (params, q).  The seed draws the t.
    Why: it is the complex side without any p-adic work, in its two regimes.
    Cold classic or Fourier ops at prime q are bound by `CycloNum`
    multiplication (about 1-2 s each at q = 19, d = 3 and q = 23, d = 1);
    later values of t cost 10-50 ms.  The direct route at q = 81, d = 3 is
    bound by the tallies in `hypergeometric` (about 4 s).
    Loads: cyclo, charsums (Gauss tables), hypergeometric, finfield.
    Bypasses: padic, checks, cli.
    Warm share: 25 of 43 ops are warm, meaning their (route, params, q) ran
    earlier in the same pass; the traced run reports it as
    `hypergeometric.warm_op_share`."""
    rng = Random(seed)
    ops = []
    for q, routes, params in COMPLEX_SLOTS:
        params = list(params)
        ts = rng.sample(range(1, q), len(routes))
        # the first t of every route is shared, so routes cross-check
        seen = {}
        for route, t in zip(routes, ts):
            op = {"fn": COMPLEX_FN[route], "params": params, "q": q}
            if route != "greene":
                op["t"] = ts[0] if route not in seen else t
            seen[route] = True
            ops.append(op)
    return ops


def warm_flags(ops):
    """Per op: did the same (route, params, q) run earlier in the pass?"""
    seen, out = set(), []
    for op in ops:
        key = (op["fn"], tuple(op["params"]), op["q"])
        out.append(key in seen)
        seen.add(key)
    return out


WORKLOADS = {
    "verify": verify_ops,
    "padic_family": padic_ops,
    "complex_sums": complex_ops,
}


def build(name, seed):
    return WORKLOADS[name](seed)
