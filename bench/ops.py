"""Seeded operation lists for the three workloads, and the checks that
verify every answer by a route independent of the one being timed.

An operation is described by a plain tuple (a "spec") so that the lists are
cheap to compare and reproduce.  `generate(workload, seed)` returns the list
for one pass; `prepare(spec)` turns a spec into a zero-argument callable that
calls the package through module attributes (so the tracer's wrappers are
seen); `check(spec, result)` returns None when the answer is right and a
short reason otherwise.  Checks run after the timed loop, never inside it.

Pool sizes follow the costs measured at the seed on a 2-core x86 machine
(Python 3.11, cold caches):

* power operations on b_j, first call: j <= 10 at l=3 (0.4 s), j <= 4 at
  l=5 (1.0 s), j <= 2 at l=7 (0.4 s).  b_3 at l=7 takes 7.2 s and b_8 at
  l=5 takes minutes, so both stay out; P8 at l=7 (7.3 s on b_1) stays out.
* `power_op_oracle` costs up to 1.1 s per call inside the pool, so the
  oracle answers are recorded once into goldens/power_ops.json and the
  timed oracle calls use only the cheap part of the pool.
* `convert` of m_(5^6) mod 5 (17 s) and `decomposition_check(80, 3)` are
  kept out of every timed list.  They show the same elimination and
  enumeration costs that P2(b_14) at l=3 (2.3 s, algebra) and
  `decomp-check --max-weight 60` (1.6 s, cli) already show.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens")

WORKLOADS = ("cli", "algebra", "geometry")

# seconds an in-process op may run before it counts as failed
DEFAULT_TIMEOUT_S = 60.0
# the nilpotent power that hangs at the seed is cut off quickly
HANG_TIMEOUT_S = 0.5

# ---------------------------------------------------------------------------
# small independent helpers (no package code)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def partitions_of(w: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of w as weakly decreasing tuples (shared list)."""
    if max_part is None:
        max_part = w
    if w == 0:
        return [()]
    out = []
    for p in range(min(w, max_part), 0, -1):
        for rest in partitions_of(w - p, p):
            out.append((p,) + rest)
    return out


def max_multiplicity(parts) -> int:
    return max((parts.count(x) for x in set(parts)), default=0)


def own_nu(n: int, ell: int) -> int:
    n = abs(n)
    e = 0
    while n % ell == 0:
        n //= ell
        e += 1
    return e


def own_multinomial(dims) -> int:
    out = math.factorial(sum(dims))
    for n in dims:
        out //= math.factorial(n)
    return out


def own_power_of(n: int, ell: int) -> bool:
    """True when n = ell**r for some r >= 1."""
    p = ell
    while p < n:
        p *= ell
    return p == n


def own_build_dims(d: int, ell: int) -> tuple[int, ...]:
    """Factor dimensions of the ambient product, from the construction's
    rule: base-ell digits of 2d+2, or P^1 x (P^(ell^(r-1)))^ell when
    2d+1 = ell^r.  Sorted descending."""
    if own_power_of(2 * d + 1, ell):
        top = 1
        while top * ell < 2 * d + 1:
            top *= ell
        dims = [1] + [top] * ell
    else:
        dims, n, i = [], 2 * d + 2, 0
        while n:
            n, a = divmod(n, ell)
            dims.extend([ell**i] * a)
            i += 1
    return tuple(sorted(dims, reverse=True))


def odd_shapes(max_dim: int) -> list[tuple[int, ...]]:
    """Factor lists of odd dimensions, in even number, total <= max_dim."""
    out = []

    def rec(rem, max_part, cur):
        if cur and len(cur) % 2 == 0:
            out.append(tuple(cur))
        for p in range(min(rem, max_part), 0, -1):
            if p % 2:
                rec(rem - p, p, cur + [p])

    rec(max_dim, max_dim, [])
    return out


def mono_text(mono) -> str:
    """b-monomial ((i, k), ...) as "b1^2*b2"."""
    if not mono:
        return "1"
    return "*".join(f"b{i}" if k == 1 else f"b{i}^{k}" for i, k in mono)


def fingerprint(result):
    """Hashable identity of an answer: its basis and sorted terms for the
    sparse types, its repr otherwise."""
    coeffs = getattr(result, "coeffs", None)
    if isinstance(coeffs, dict):
        return (type(result).__name__, getattr(result, "basis", None), repr(sorted(coeffs.items())))
    return repr(result)


def bpoly_rows(p) -> list:
    """Canonical JSON-able form of a BPoly: sorted [[[i, k], ...], c]."""
    return sorted([[list(map(list, m)), int(c)] for m, c in p.coeffs.items()])


# ---------------------------------------------------------------------------
# algebra workload
# ---------------------------------------------------------------------------

CONVERT_WEIGHTS = (6, 8, 10, 12, 14)
MODULI = (3, 5, 7)
PAIRS_Z = tuple(
    (a, b)
    for a in ("monomial", "elementary", "power-sum")
    for b in ("monomial", "elementary", "power-sum")
    if a != b
)
# mod l the power-sum basis is a target only of itself: m -> p needs
# divisions by multiplicity factorials that are not invertible mod l
PAIRS_MOD = (
    ("monomial", "elementary"),
    ("elementary", "monomial"),
    ("power-sum", "monomial"),
    ("power-sum", "elementary"),
)
EXPAND_MAX_WEIGHT = 8
# more variables make e- and p-basis expansions at weight 8 cost ~1 s each;
# with 6 only partitions of more than 6 parts drop out of the comparison
EXPAND_MAX_VARS = 6

# (prime, generator indices, operation indices): see the module docstring
POWER_GENERATORS = (
    (3, range(1, 11), (2, 4)),
    (3, range(1, 5), (6,)),
    (3, range(1, 3), (8,)),
    (5, range(1, 5), (2, 4)),
    (5, range(1, 2), (6, 8)),
    (7, range(1, 3), (2, 4)),
)
POWER_PRODUCTS = (
    (3, ((1, 2), (2, 1)), (2, 4)),
    (3, ((1, 1), (2, 1)), (2, 4)),
    (3, ((1, 3),), (2, 4)),
    (5, ((1, 1), (2, 1)), (2, 4)),
    (7, ((1, 2),), (2,)),
)


def power_pool() -> list[tuple[int, int, tuple]]:
    """Every (prime, index, monomial) the power-operation ops draw from."""
    pool = []
    for ell, js, idx in POWER_GENERATORS:
        for j in js:
            pool.extend((ell, i, ((j, 1),)) for i in idx)
    for ell, mono, idx in POWER_PRODUCTS:
        pool.extend((ell, i, mono) for i in idx)
    return pool


def power_key(ell: int, i: int, mono) -> str:
    return f"{ell}:P{i}:{mono_text(mono)}"


def oracle_pool() -> list[tuple[int, int, tuple]]:
    """The part of the pool where one oracle call stays under 0.1 s."""
    return [
        (ell, i, mono)
        for ell, i, mono in power_pool()
        if i == 2 or (i == 4 and sum(2 * j * k for j, k in mono) <= 6 and ell < 7)
    ]


# the seed draws from fixed input pools, so seeds differ in which queries
# repeat and in what order, but not in the population they come from
POOL_PER_STRATUM = 3
CONVERT_DRAWS_PER_STRATUM = 3
U_TO_B_POOL = 16
U_TO_B_DRAWS_PER_MODULUS = 25
POWER_DRAWS_PER_ACTION = 100
DEFECT_POWER = ("power_op", 2, ((14, 1),), 3)


def _random_symfn(rng, w, basis, mod):
    choices = partitions_of(w)
    if mod is not None and basis == "power-sum":
        choices = [p for p in choices if max_multiplicity(p) < mod]
    parts = sorted(rng.sample(choices, rng.randint(1, 3)))
    hi = 9 if mod is None else mod - 1
    return tuple((p, rng.randint(1, hi)) for p in parts)


def _convert_spec(rng, mod, w, pair):
    src, dst = pair
    return ("convert", src, dst, mod, _random_symfn(rng, w, src, mod))


def algebra_warmup() -> list[tuple]:
    """The seed-independent head of every algebra pass: queries that build
    every transition table at the weights used (m_(w) -> e touches every
    e -> m table of weight w, m_(1^w) -> p every p -> m table), the first
    call of every power operation in the pool, and the known defect.  Cold
    costs so fall on the same ops whatever the seed."""
    head = [("convert", "monomial", "elementary", None, (((w,), 1),)) for w in range(2, 15)]
    for w in CONVERT_WEIGHTS:
        head.append(("convert", "monomial", "power-sum", None, (((1,) * w, 1),)))
    for mod in MODULI:
        head.extend(("convert", "monomial", "elementary", mod, (((w,), 1),)) for w in CONVERT_WEIGHTS)
    for ell, i, mono in power_pool():
        head.append(("power_op", i, mono, ell))
        head.append(("power_op_untwisted", i, mono, ell))
    head.append(DEFECT_POWER)
    return head


@functools.lru_cache(maxsize=None)
def algebra_pools() -> tuple[dict, dict]:
    """Seed-independent query pools: POOL_PER_STRATUM conversions per
    (modulus, weight, basis pair), U_TO_B_POOL even partitions of half
    weight 2..14 per modulus."""
    rng = random.Random("algebra-pools")
    converts = {}
    for mod in (None,) + MODULI:
        for w in CONVERT_WEIGHTS:
            for pair in PAIRS_Z if mod is None else PAIRS_MOD:
                converts[mod, w, pair] = [_convert_spec(rng, mod, w, pair) for _ in range(POOL_PER_STRATUM)]
    u_to_b = {}
    for mod in (None,) + MODULI:
        halves = [rng.choice(partitions_of(rng.randint(2, 14))) for _ in range(U_TO_B_POOL)]
        u_to_b[mod] = [("u_to_b", tuple(2 * x for x in h), mod) for h in halves]
    return converts, u_to_b


def algebra_specs(seed: int) -> list[tuple]:
    """Warm-up head, then a seeded shuffle of draws from the pools with
    fixed counts per (modulus, weight, basis pair), per modulus for u_to_b
    and per action for power operations: heavy reuse of the same weights
    and queries, so caches get hit."""
    rng = random.Random(f"algebra:{seed}")
    converts, u_to_b = algebra_pools()
    body = []
    for stratum in converts.values():
        body.extend(rng.choice(stratum) for _ in range(CONVERT_DRAWS_PER_STRATUM))
    for stratum in u_to_b.values():
        # u_to_b costs spread widely with weight and sit at the median op,
        # so every pool query is drawn once and only the rest by the seed
        body.extend(stratum)
        body.extend(rng.sample(stratum, U_TO_B_DRAWS_PER_MODULUS - len(stratum)))
    pool = power_pool()
    for action in ("power_op", "power_op_untwisted"):
        for _ in range(POWER_DRAWS_PER_ACTION):
            ell, i, mono = rng.choice(pool)
            body.append((action, i, mono, ell))
    for ell, i, mono in oracle_pool():
        body.append(("power_op_oracle", i, mono, ell))
    rng.shuffle(body)
    return algebra_warmup() + body


# ---------------------------------------------------------------------------
# geometry workload
# ---------------------------------------------------------------------------

GEOMETRY_PRIMES = (3, 5, 7, 11, 13)
SHAPE_MAX_DIM = 14
N_TANGENT = 30
N_CONGRUENCE = 120
CONGRUENCE_MAX_D = 1000
N_CRITERION = 10
VALUATION_MAX_D = 1000
DEFECT_POW = ("chow_pow", (1, 1), 10**8)


def build_x_cases(max_dim: int = SHAPE_MAX_DIM) -> list[tuple[int, int]]:
    """One (d, prime) per distinct construction space within the cap."""
    seen, out = set(), []
    for ell in GEOMETRY_PRIMES:
        for d in range(1, max_dim // 2):
            dims = own_build_dims(d, ell)
            if sum(dims) <= max_dim and dims not in seen:
                seen.add(dims)
                out.append((d, ell))
    return out


def geometry_specs(seed: int) -> list[tuple]:
    """Fixed shapes, spaces and tables, plus seeded tangent-bundle classes,
    congruences and criterion perturbations, all in seeded order.

    The cost of a tangent-bundle class grows with its space and that of a
    congruence check with d, and both sit near the median op.  So the
    spaces come from a fixed pool and each prime gets one d from each of
    equal ranges of 1..CONGRUENCE_MAX_D: the seed moves inputs, not the
    cost mix."""
    rng = random.Random(f"geometry:{seed}")
    pool = random.Random("geometry-pools")
    specs = []
    for dims in odd_shapes(SHAPE_MAX_DIM):
        specs.append(("s_number", dims))
        specs.append(("s_number_bruteforce", dims))
    for d, ell in build_x_cases():
        specs.append(("signed_char_number", d, ell))
    for _ in range(N_TANGENT):
        dims = tuple(sorted((pool.randint(1, 5) for _ in range(pool.randint(1, 3))), reverse=True))
        specs.append(("newton_class", dims, rng.randint(1, sum(dims) + 1)))
        specs.append(("cf_chern", dims, rng.choice(partitions_of(rng.randint(1, 4)))))
    for ell in GEOMETRY_PRIMES:
        specs.append(("valuation_table", ell, VALUATION_MAX_D))
    ranges = N_CONGRUENCE // len(GEOMETRY_PRIMES)
    for ell in GEOMETRY_PRIMES:
        for r in range(ranges):
            lo, hi = r * CONGRUENCE_MAX_D // ranges + 1, (r + 1) * CONGRUENCE_MAX_D // ranges
            d = rng.randint(lo, hi)
            while own_power_of(2 * d + 1, ell):
                d = rng.randint(lo, hi)
            specs.append(("congruence_check", d, ell))
    for _ in range(N_CRITERION):
        ell, d_max = rng.choice(GEOMETRY_PRIMES), rng.randint(20, 60)
        flipped = tuple(sorted(rng.sample(range(1, d_max + 1), rng.randint(1, 3))))
        specs.append(("global_criterion", ell, d_max, flipped))
    specs.append(DEFECT_POW)
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# preparing and checking in-process ops
# ---------------------------------------------------------------------------


def timeout_of(spec) -> float:
    return HANG_TIMEOUT_S if spec == DEFECT_POW else DEFAULT_TIMEOUT_S


def is_known_defect(spec) -> bool:
    return spec in (DEFECT_POWER, DEFECT_POW)


def generate(workload: str, seed: int) -> list[tuple]:
    if workload == "algebra":
        return algebra_specs(seed)
    if workload == "geometry":
        return geometry_specs(seed)
    raise ValueError(f"no in-process op list for {workload!r}")


def prepare(spec):
    """Build the inputs of spec (set-up) and return the timed call."""
    from cobcalc import chow, criterion, steenrod, stong, symfun

    kind = spec[0]
    if kind == "convert":
        _, src, dst, mod, terms = spec
        f = symfun.SymFn(dict(terms), src, mod)
        return lambda: symfun.convert(f, dst)
    if kind == "u_to_b":
        _, omega, mod = spec
        return lambda: symfun.u_to_b(omega, modulus=mod)
    if kind in ("power_op", "power_op_untwisted", "power_op_oracle"):
        _, i, mono, ell = spec
        f = symfun.BPoly({mono: 1}, ell)
        if kind == "power_op_oracle":
            return lambda: steenrod.power_op_oracle(i, f, ell, steenrod.stability_bound(f, i, ell))
        return lambda: getattr(steenrod, kind)(i, f, ell)
    if kind in ("s_number", "s_number_bruteforce"):
        X = chow.ProjProduct(spec[1])
        return lambda: getattr(stong, kind)(X)
    if kind == "signed_char_number":
        _, d, ell = spec
        return lambda: stong.signed_char_number(stong.build_X(d, ell))
    if kind == "newton_class":
        _, dims, n = spec
        X = chow.ProjProduct(dims)
        return lambda: chow.newton_class(chow.tangent_bundle(X), n)
    if kind == "cf_chern":
        _, dims, parts = spec
        X = chow.ProjProduct(dims)
        return lambda: chow.cf_chern(chow.tangent_bundle(X), parts)
    if kind == "valuation_table":
        _, ell, d_max = spec
        return lambda: stong.valuation_table(ell, d_max)
    if kind == "congruence_check":
        _, d, ell = spec
        return lambda: stong.congruence_check(d, ell)
    if kind == "global_criterion":
        _, ell, d_max, flipped = spec

        def run():
            fam = criterion.stong_family(ell, d_max)
            for d in flipped:
                fam = fam.with_entry(d, fam.entries[d] * ell)
            return fam, criterion.global_criterion(fam, GEOMETRY_PRIMES[-1], d_max)

        return run
    if kind == "chow_pow":
        _, dims, n = spec
        X = chow.ProjProduct(dims)
        return lambda: chow.alpha(X) ** n
    raise ValueError(f"unknown op kind {kind!r}")


_POWER_GOLDENS = None


def power_goldens() -> dict:
    global _POWER_GOLDENS
    if _POWER_GOLDENS is None:
        with open(os.path.join(GOLDENS, "power_ops.json"), encoding="utf-8") as fh:
            _POWER_GOLDENS = json.load(fh)
    return _POWER_GOLDENS


def _same_function(a, b, symfun) -> str | None:
    """Compare two symmetric functions of one modulus through their
    monomial expansions, and in concrete variables at small weight."""
    ma = symfun.convert(a, "monomial").coeffs
    mb = symfun.convert(b, "monomial").coeffs
    if ma != mb:
        return "monomial expansions differ"
    w = max(a.weight, b.weight)
    if 0 < w <= EXPAND_MAX_WEIGHT:
        k = min(w, EXPAND_MAX_VARS)
        if symfun.expand_in_vars(a, k) != symfun.expand_in_vars(b, k):
            return "expansions in variables differ"
    return None


def check(spec, result) -> str | None:
    """None when result is the right answer for spec, else a reason."""
    from cobcalc import chow, symfun

    kind = spec[0]
    if kind == "convert":
        _, src, dst, mod, terms = spec
        f = symfun.SymFn(dict(terms), src, mod)
        if result.basis != dst:
            return f"basis {result.basis}, expected {dst}"
        if symfun.convert(result, src).coeffs != f.coeffs:
            return "round trip to the source basis differs"
        if f.weight <= EXPAND_MAX_WEIGHT:
            k = min(f.weight, EXPAND_MAX_VARS)
            if symfun.expand_in_vars(result, k) != symfun.expand_in_vars(f, k):
                return "expansions in variables differ"
        return None
    if kind == "u_to_b":
        _, omega, mod = spec
        half = tuple(x // 2 for x in omega)
        want = symfun.SymFn({half: 1}, "monomial", mod)
        return _same_function(symfun.bpoly_to_symfn(result), want, symfun)
    if kind in ("power_op", "power_op_oracle", "power_op_untwisted"):
        _, i, mono, ell = spec
        if spec == DEFECT_POWER:
            # expected: a homogeneous answer of weight 2j + i(l-1), inside
            # steenrod.WEIGHT_CAP; no oracle reaches this size
            want_weight = sum(2 * j * k for j, k in mono) + i * (ell - 1)
            if not result.is_homogeneous() or (result.coeffs and result.weight != want_weight):
                return "answer not homogeneous of the expected weight"
            return None
        table = "untwisted" if kind == "power_op_untwisted" else "twisted"
        want = power_goldens()[table][power_key(ell, i, mono)]
        return None if bpoly_rows(result) == want else "differs from the oracle answer"
    if kind in ("s_number", "s_number_bruteforce"):
        want = -2 * own_multinomial(spec[1])
        return None if result == want else f"{result} != {want}"
    if kind == "signed_char_number":
        _, d, ell = spec
        dims = own_build_dims(d, ell)
        sign_exponent = 1 + sum((n + 1) // 2 for n in dims)
        want = (-1) ** (sign_exponent + 1) * -2 * own_multinomial(dims)
        return None if result == want else f"{result} != {want}"
    if kind == "newton_class":
        _, dims, n = spec
        # tangent bundle = sum of (n_i + 1) hyperplane bundles minus trivials
        want = {}
        for idx, ni in enumerate(dims):
            if n <= ni:
                e = [0] * len(dims)
                e[idx] = n
                want[tuple(e)] = ni + 1
        return None if result.coeffs == want else "Newton class differs"
    if kind == "cf_chern":
        _, dims, parts = spec
        return None if result.coeffs == _cf_of_tangent(dims, parts) else "Conner-Floyd class differs"
    if kind == "valuation_table":
        return _check_valuation_table(spec, result)
    if kind == "congruence_check":
        _, d, ell = spec
        dims = own_build_dims(d, ell)
        lhs = 2 * own_multinomial(dims) % ell
        rhs = 2
        n = 2 * d + 2
        while n:
            n, a = divmod(n, ell)
            rhs *= math.factorial(a)
        rhs %= ell
        return None if tuple(result) == (lhs, rhs, lhs == rhs) and lhs == rhs else f"{result}"
    if kind == "global_criterion":
        return _check_criterion(spec, result)
    if kind == "chow_pow":
        # the truncated ring is nilpotent above its total dimension
        _, dims, n = spec
        if not isinstance(result, chow.ChowClass):
            return "not a class"
        return None if n <= sum(dims) or not result.coeffs else "nonzero above the top degree"
    return f"unknown op kind {kind!r}"


def _cf_of_tangent(dims, parts) -> dict:
    """Coefficient of t_I in prod over roots x of (1 + x t_1 + x^2 t_2 + ...),
    roots: n_i + 1 copies of each hyperplane class a_i (trivial summands
    have root 0 and contribute 1).  Sums over ordered choices of distinct
    roots, then divides by the symmetries of equal parts."""
    roots = [idx for idx, ni in enumerate(dims) for _ in range(ni + 1)]
    out: dict = {}

    def rec(k, used, exps):
        if k == len(parts):
            key = tuple(exps)
            out[key] = out.get(key, 0) + 1
            return
        for slot, factor in enumerate(roots):
            if slot in used:
                continue
            e = list(exps)
            e[factor] += parts[k]
            if e[factor] > dims[factor]:
                continue
            rec(k + 1, used | {slot}, e)

    rec(0, frozenset(), [0] * len(dims))
    sym = 1
    for x in set(parts):
        sym *= math.factorial(parts.count(x))
    return {e: c // sym for e, c in out.items() if c}


def _check_valuation_table(spec, rows) -> str | None:
    _, ell, d_max = spec
    if [r.d for r in rows] != list(range(1, d_max + 1)):
        return "wrong degrees"
    for r in rows:
        dims = own_build_dims(r.d, ell)
        if tuple(sorted(r.factors.dims, reverse=True)) != dims:
            return f"d={r.d}: factors {r.factors.dims}, expected {dims}"
        if r.valuation != own_nu(r.s_number, ell):
            return f"d={r.d}: valuation {r.valuation} != nu of the number"
        if r.expected != int(own_power_of(2 * r.d + 1, ell)):
            return f"d={r.d}: wrong expected flag"
        if r.d % 50 == 1 and r.s_number != -2 * own_multinomial(dims):
            return f"d={r.d}: characteristic number differs"
    return None


def _check_criterion(spec, result) -> str | None:
    _, ell, d_max, flipped = spec
    fam, verdicts = result
    primes = list(GEOMETRY_PRIMES)
    if sorted(verdicts) != primes:
        return f"primes {sorted(verdicts)}"
    for d in range(1, d_max + 1):
        base = 2 * own_multinomial(own_build_dims(d, ell))
        want_value = base * ell if d in flipped else base
        if fam.entries[d] != want_value:
            return f"d={d}: family entry differs"
    for p in primes:
        rows = verdicts[p].rows
        for r in rows:
            value = fam.entries[r.d]
            required = int(own_power_of(2 * r.d + 1, p))
            passed = own_nu(value, p) == required
            if r.passed != passed or r.required != required:
                return f"prime {p}, d={r.d}: verdict differs"
            unperturbed = own_nu(value // ell if r.d in flipped else value, p) == required
            flips = p == ell and r.d in flipped
            if (passed != unperturbed) != flips:
                return f"prime {p}, d={r.d}: flip on an unperturbed degree"
    return None


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    """One `python -m cobcalc.cli` call.

    expect: "golden" (exit 0, stdout byte-identical to the output recorded
    at the seed, kept as its SHA-256 and length in goldens/cli.json),
    "refusal" (exit 2, empty stdout, one-line "error:" diagnostic and no
    traceback), or "weight:<w>" (exit 0, a b-polynomial homogeneous of
    weight w)."""

    name: str
    argv: tuple[str, ...]
    expect: str = "golden"
    stdin: str | None = None
    timeout_s: float = 60.0
    known_defect: bool = False


def _g(name: str) -> str:
    return os.path.join("bench", "goldens", name)


CLI_OPS = (
    # every README example
    CliOp("snumbers-md", ("snumbers", "--prime", "3", "--max-d", "10", "--format", "md")),
    CliOp("verify-p3", ("verify-generators", "--prime", "3", "--max-d", "20")),
    CliOp("verify-all-7", ("verify-generators", "--all-primes-up-to", "7", "--max-d", "10")),
    CliOp("verify-family", ("verify-generators", "--prime", "5", "--max-d", "4", "--family", _g("family.json"))),
    CliOp("steenrod-b1", ("steenrod", "--prime", "3", "--op", "P2", "--class", "b1")),
    CliOp("steenrod-untwisted", ("steenrod", "--prime", "3", "--op", "P2", "--class", "b1^2*b2", "--untwisted")),
    CliOp("decomp-60", ("decomp-check", "--prime", "3", "--max-weight", "60")),
    CliOp("ranks-30", ("ranks", "--max-d", "30")),
    CliOp("partitions-8", ("partition-tools", "--weight", "8", "--predicate", "even-non-ladic", "--prime", "3")),
    CliOp("is-ladic", ("partition-tools", "--is-ladic", "8,4", "--prime", "3")),
    CliOp("u-to-b-4-2", ("u-to-b", "--partition", "4,2")),
    CliOp("chow-readme", ("chow", "--input", "-"), stdin=_g("chow_readme.json")),
    # self-test three times: with three passes the tail rank (p75, the 50th
    # of 66 samples) then falls in the middle of its nine samples, not at the
    # edge between the fast and the slow commands
    CliOp("self-test", ("self-test",)),
    CliOp("self-test", ("self-test",)),
    CliOp("self-test", ("self-test",)),
    # desk-scale queries
    CliOp("u-to-b-12-12-8-4", ("u-to-b", "--partition", "12,12,8,4")),
    CliOp("steenrod-p5-b4", ("steenrod", "--prime", "5", "--op", "P2", "--class", "b4")),
    CliOp("snumbers-2000", ("snumbers", "--prime", "3", "--max-d", "2000")),
    # expected refusals
    CliOp("refuse-readme-family", ("verify-generators", "--prime", "5", "--max-d", "4", "--family", _g("family_readme.json")), "refusal"),
    CliOp("refuse-u-to-b-200", ("u-to-b", "--partition", "200"), "refusal"),
    CliOp("refuse-odd-partition", ("u-to-b", "--partition", "3,1"), "refusal"),
    CliOp("refuse-prime-9", ("steenrod", "--prime", "9", "--op", "P2", "--class", "b1"), "refusal"),
    # known seed defects: these fail at the seed on purpose
    CliOp("defect-steenrod-b14", ("steenrod", "--prime", "3", "--op", "P2", "--class", "b14"), "weight:32", known_defect=True),
    CliOp("defect-chow-mul-empty", ("chow", "--input", _g("chow_mul_empty.json")), "refusal", known_defect=True),
    CliOp("defect-chow-pow-1e8", ("chow", "--input", _g("chow_pow_1e8.json")), timeout_s=1.0, known_defect=True),
)

# the golden of the hanging power is recorded from the same query at n = 3:
# the ring of P^1 x P^1 is zero above degree 2
GOLDEN_SOURCES = {"defect-chow-pow-1e8": ("chow", "--input", _g("chow_pow_3.json"))}


def cli_ops(seed: int) -> list[CliOp]:
    ops = list(CLI_OPS)
    random.Random(f"cli:{seed}").shuffle(ops)
    return ops


CLI_GOLDENS = os.path.join(GOLDENS, "cli.json")
_CLI_GOLDENS = None


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def cli_golden(op: CliOp) -> dict:
    global _CLI_GOLDENS
    if _CLI_GOLDENS is None:
        with open(CLI_GOLDENS, encoding="utf-8") as fh:
            _CLI_GOLDENS = json.load(fh)
    return _CLI_GOLDENS[op.name]


def check_cli(op: CliOp, code, stdout: bytes, stderr: bytes) -> str | None:
    """None when the CLI call behaved as expected, else a reason."""
    if code is None:
        return f"timed out after {op.timeout_s} s"
    if b"Traceback" in stderr:
        return f"traceback on stderr (exit {code})"
    if op.expect == "refusal":
        if code != 2:
            return f"exit {code}, expected 2"
        if stdout or not stderr.startswith(b"error: "):
            return "refusal without a one-line error"
        return None
    if code != 0:
        return f"exit {code}, expected 0"
    if op.expect == "golden":
        return None if digest(stdout) == cli_golden(op) else "stdout differs from the golden"
    weight = int(op.expect.split(":")[1])
    rows = json.loads(stdout)
    weights = {sum(2 * int(i) * k for i, k in r["exponents"].items()) for r in rows}
    return None if weights <= {weight} else f"weights {sorted(weights)}, expected {weight}"
