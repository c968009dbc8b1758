"""Degree-diagonal cohomology of a product of projective spaces
(`space.ProjProduct`, which this module re-exports), as the truncated
polynomial ring Z[a1..am]/(a_i^{n_i+1}), with the degree map,
virtual sums of line bundles under the additive first-Chern-class law, and
their Newton and Conner-Floyd classes.

Classes are sparse dicts keyed by exponent vectors bounded componentwise by
the factor dimensions; sums go through `_sparse`.  Products run on the
packed keys of `_sparse` instead (Monagan and Pearce, CASC 2007), so the
exponents of a product are one integer addition, and truncation is one
mask test per pair of terms, since adding the offset half - 1 - n_i to a
field sets its top (guard) bit exactly when the exponent sum exceeds n_i
(`_layout`).  Keys are packed on entry to a product and unpacked on exit.

Work is counted in key-field operations, one field of one packed key
touched by a term pair of a product or an orbit of a push step, and every
operation refuses more than MAX_WORK before the work it prices
(`check_work`): a product its term pairs times factor count, a power or
`cf_chern` the sum of its steps, `stong`'s expansions their invariant
rank times factor count.  A power (c0 + N)**n, c0 the degree-0
coefficient and N the nilpotent rest, is the binomial sum of
C(n, k) c0**(n-k) N**k, collected once on packed keys, in at most
`ChowClass.power_steps` products, each a nonzero N**(k-1) times N: so many
products of len(N) terms are priced up front.  Its numbers are checked as
they are formed (`valuation.printable`): c0**n, then each nonzero N**k and
C(n, k) c0**(n-k).  A class of one term c a^e, such as the first Chern
class of a twist on one factor, skips the sum: its power, one product, is
c**n a^(n e), or zero once n e passes a factor dimension, and c**n is
checked only for the constant class (e = 0), where c is c0.

`InvariantSubring` is the part of the ring that permuting equal factors
fixes, on the basis of orbit sums of monomials, each keyed by the sorted
exponents of each group of equal factors.  Its product, the push step,
multiplies by a weighted sum of the groups' power sums p_k of hyperplane
classes (alpha is the sum of the p_1), and its Newton class takes twists
constant on each group or in orbits of single-factor twists: `stong`'s
expansions run there, and the full ring is their second route.

Only sums of line bundles appear as bundles: every bundle computed with
here splits into such a sum, of twists t with signed counts s_t.  The
Newton class p_n is the signed sum of the n-th powers of the summands'
first Chern classes c_t, so the trivial twist takes no power.  The
Conner-Floyd class c_I, m_I of the Chern roots, is the b^I coefficient of
the product of B(c_t)**s_t, B(y) = 1 + sum b_j y^j (Adams 1974, Part II):
binomial series over Z, with no Fraction and no inverse series.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import compress, groupby, islice, product
from math import comb, prod
from operator import gt, lshift, mul

from . import _sparse
from ._record import Record
from .partitions import Partition
from .space import ProjProduct
from .valuation import MAX_DIGITS, multinomial, printable

# Key-field operations of one product, power or expansion (module
# docstring): 2**22 of them take 0.8-1.4 s of CPU whatever the operation
# (2-core x86 host, Python 3.11.7; the README's limit table)
MAX_WORK = 2**22


def check_work(work: int, what: str, *args) -> None:
    """Refuse work above MAX_WORK, named by what.format(*args), formed only then."""
    if work > MAX_WORK:
        raise ValueError(f"{what.format(*args)} has predicted work {work}, above the limit {MAX_WORK}")


class ChowClass(Record):
    """Element of the truncated ring of a ProjProduct."""

    _fields = ("space", "coeffs")
    __slots__ = ()

    def __new__(cls, space: ProjProduct, coeffs: dict | None = None) -> ChowClass:
        return cls._trusted(space, _sparse.build(coeffs or {}, partial(_exponents, space), integral=True))

    @staticmethod
    def zero(space: ProjProduct) -> "ChowClass":
        return ChowClass(space, {})

    @staticmethod
    def one(space: ProjProduct) -> "ChowClass":
        return ChowClass(space, {(0,) * space.factor_count: 1})

    def _check(self, other: "ChowClass") -> None:
        if self.space != other.space:
            raise ValueError("ambient space mismatch")

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        return self._result(_sparse.add(self.coeffs, other.coeffs))

    def __neg__(self) -> "ChowClass":
        return self.scale(-1)

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        shifts, mask, _, _ = layout = _layout(self.space.dims)
        product, _ = _mul(_sparse.pack(self.coeffs, shifts), _sparse.pack(other.coeffs, shifts), layout)
        return self._result(_sparse.unpack(product, shifts, mask))

    def __pow__(self, n: int) -> "ChowClass":
        # the binomial sum of the module docstring: each N**k is one product
        # from N**(k-1), where repeated squaring would pair large intermediates
        if n < 0:
            raise ValueError("negative power")
        m = self.space.factor_count
        if len(self.coeffs) == 1:  # one step (module docstring)
            check_work(m, "power of 1 term on {} factors", m)
            ((e, c),) = self.coeffs.items()
            e = tuple([n * x for x in e])
            if any(map(gt, e, self.space.dims)):
                return self._result({})
            if not printable(c, n):
                raise ValueError(f"a coefficient has over {MAX_DIGITS} digits")
            return self._result({e: c**n})
        steps = self.power_steps(n)
        shifts, mask, _, _ = layout = _layout(self.space.dims)
        nilpotent = _sparse.pack(self.coeffs, shifts)
        c0 = nilpotent.pop(0, 0)  # the packed key of the unit is 0
        if not c0 and steps < n:  # only N**n is left, and it vanishes
            return self._result({})
        t = len(nilpotent)
        check_work(steps * t * m, "power of {} terms in {} products on {} factors", t, steps, m)
        if not printable(c0, n):
            raise ValueError(f"a coefficient has over {MAX_DIGITS} digits")
        terms = [(0, coeff := c0**n)]  # coeff is C(n, k) c0**(n-k), from the one before
        for k, (power, _) in enumerate(islice(_powers(nilpotent, layout), steps), 1):
            coeff = coeff * (n - k + 1) // (k * c0) if c0 else int(k == n)
            if power and not printable(coeff):  # a zero N**k adds no terms
                raise ValueError(f"a coefficient has over {MAX_DIGITS} digits")
            if coeff:
                terms += [(key, coeff * c) for key, c in power.items()]
        return self._result(_sparse.unpack(_sparse.collect(terms), shifts, mask))

    def power_steps(self, n: int) -> int:
        """min(n, K), K the total dimension of the factors that the
        nilpotent part N touches over the least degree of its terms:
        N**k vanishes for every k > K."""
        nilpotent = [e for e in self.coeffs if any(e)]
        if not nilpotent:
            return 0
        touched = sum(compress(self.space.dims, map(any, zip(*nilpotent))))
        return min(n, touched // min(map(sum, nilpotent)))

    def scale(self, a: int) -> "ChowClass":
        if type(a) is not int:  # a ring over Z, as its constructor holds it
            raise ValueError(f"scalar {a!r} is not an int")
        return self._result(_sparse.scale(self.coeffs, a))

    def _result(self, coeffs: dict) -> "ChowClass":
        return ChowClass._trusted(space=self.space, coeffs=coeffs)


@lru_cache(maxsize=256)
def _layout(dims: tuple[int, ...]) -> tuple[range, int, int, int]:
    """The `_sparse` packing of one space's exponent vectors, fields of
    w = max(dims).bit_length() + 1 bits, and its truncation offset, as
    (shifts, mask, offset, guard).  Every n_i is below its field's guard
    bit half = 2**(w - 1); adding offset (half - 1 - n_i in field i) to an
    exponent sum of at most 2 n_i never carries into the next field, and
    sets the guard bit exactly when the sum exceeds n_i."""
    shifts, mask, guard = _sparse.layout(len(dims), max(dims))
    half = (mask >> 1) + 1
    offset = sum((half - 1 - n) << s for n, s in zip(dims, shifts))
    return shifts, mask, offset, guard


def _mul(a: dict, b: dict, layout: tuple, spent: int = 0) -> tuple[dict, int]:
    """Product of two classes on packed keys, without zero coefficients,
    and its work added to spent, the work of the operation before it;
    refused before any pair is formed when that passes MAX_WORK."""
    m = len(layout[0])
    work = len(a) * len(b) * m
    before = ", with the work before it," if spent else ""
    check_work(spent + work, "product of {} x {} terms on {} factors{}", len(a), len(b), m, before)
    offset, guard = layout[2], layout[3]
    out: dict = {}
    get = out.get
    if len(a) > len(b):  # the fewer terms outside, each setting up an inner loop
        a, b = b, a
    for ka, ca in a.items():
        shifted = ka + offset
        for kb, cb in b.items():
            if not (shifted + kb) & guard:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
    return _sparse.clean(out), spent + work


def _powers(base: dict, layout: tuple, spent: int = 0):
    """(base**k, work spent so far) for k = 1, 2, ... to the first zero power, checked as formed."""
    power = {0: 1}
    while power:
        power, spent = _mul(power, base, layout, spent)
        if power and not printable(max(map(abs, power.values()))):
            raise ValueError(f"a coefficient has over {MAX_DIGITS} digits")
        yield power, spent


# The push moves found from a group's part of a key are kept, up to this
# many parts per group, k and weight: a group (n, a) has C(n + a, a) parts,
# too many to list when n is large, while a step reaches only a few of them
_MOVES_KEPT = 4096


class InvariantSubring:
    """The subring of the truncated ring of space that is invariant under
    permuting equal factors, on the basis of orbit sums of monomials.

    The equal factors form groups (n, a): a copies of P^n.  The orbit of a
    monomial is fixed, group by group, by the multiset of the exponents of
    the group's factors, which the key holds sorted in the group's a
    fields of one `_sparse` layout: as wide as a key of the full ring.
    The unit orbit is key 0, and the top orbit, every exponent at its
    dimension, holds the top monomial alone.  Multiplying by the power sum
    p_k(g) of the hyperplane classes of a group g is a push step: it moves
    one factor of g from an exponent v to v + k (`_push_moves`), and the
    orbit sum so reached collects each of its monomials once from every
    factor at v + k, so the step's coefficient is the new count of v + k.
    """

    __slots__ = ("_groups", "top")

    unit = 0

    def __init__(self, space: ProjProduct) -> None:
        # a group is (mask of its fields, fields, field mask, n, its factors, move tables)
        shifts, mask, _ = _sparse.layout(space.factor_count, max(space.dims))
        first, self._groups = 0, []
        for n, a in factor_groups(space):
            fields = shifts[first : first + a]
            factors = [i for i, m in enumerate(space.dims) if m == n]
            group_mask = ((1 << (a * mask.bit_length())) - 1) << fields[0]
            self._groups.append((group_mask, fields, mask, n, factors, {}))
            first += a
        self.top = self.orbit(space.dims)

    def orbit(self, exps) -> int:
        """Key of the orbit of the monomial with exponents exps."""
        return sum(sum(map(lshift, sorted(exps[i] for i in g[4]), g[1])) for g in self._groups)

    def push(self, cls: dict, weights: dict, k: int = 1, times: int = 1) -> dict:
        """cls times (sum of c_g p_k(g) over the groups g)**times, without zero
        coefficients; weights maps the factor dimension of g to c_g, 0 when
        absent (alpha: every c_g 1, k = 1).  Moves are kept per k and c_g."""
        tables = [(g, g[-1].setdefault((k, w), {}), w) for g in self._groups if (w := weights.get(g[3]))]
        for _ in range(times):
            if not cls:
                break
            out: dict = {}
            get = out.get
            items = cls.items()
            # one group at a time: a key's part in a group is one mask away
            for group, moves, weight in tables:
                group_mask = group[0]
                for key, c in items:
                    part = key & group_mask
                    steps = moves.get(part)
                    if steps is None:
                        if len(moves) == _MOVES_KEPT:
                            moves.clear()
                        steps = moves[part] = _push_moves(part, group, k, weight)
                    for step, count in steps:
                        new = key + step
                        out[new] = get(new, 0) + c * count
            cls = _sparse.clean(out)
        return cls

    def newton_class(self, v: VirtualBundle, n: int) -> dict:
        """The Newton class of v (`newton_class`) from its signed twists.  A
        twist constant on each group, c_g on g, gives its count times
        (sum c_g p_1(g))**n, by n push steps, none for the zero twist.  A
        twist c on one factor of g lies in the orbit of the twists c on each
        factor of g, which must all carry one count s, and the orbit gives
        s c**n p_n(g); all orbits take one k = n push.  Others are refused."""
        if n < 1:
            raise ValueError("n must be positive")
        dims, terms, orbits = v.space.dims, [], {}
        for twist, sign in v.signed_twists().items():
            if not sign or not any(twist):
                continue
            if len(twist) - twist.count(0) == 1:
                c = sum(twist)
                orbits.setdefault((dims[twist.index(c)], c), []).append(sign)
                continue
            weights = dict(zip(dims, twist))
            if tuple(map(weights.get, dims)) != twist:
                raise ValueError(f"twist {twist} is neither constant on each group nor on one factor")
            terms += self.push({self.unit: sign}, weights, 1, n).items()
        weights = dict.fromkeys(dims, 0)
        for (dim, c), signs in orbits.items():
            if signs != signs[:1] * dims.count(dim):
                raise ValueError(f"the twists {c} on the copies of P^{dim} differ in signed count")
            weights[dim] += signs[0] * c**n
        return _sparse.collect([*terms, *self.push({self.unit: 1}, weights, n).items()])

    def deg(self, cls: dict) -> int:
        """Coefficient of the top orbit, which is the top monomial alone."""
        return cls.get(self.top, 0)


def _push_moves(part: int, group: tuple, k: int, weight: int) -> list:
    """The moves of a push step by weight p_k from one group's part of an
    orbit key, as (key increment, weight times the new count of v + k), one
    per exponent v held with v + k <= n, read from the top field down.  The
    top field of v's run moves to v + k and the runs in (v, v + k] shift
    down one field; only k > 1 reaches past the run just above."""
    _, fields, mask, n, _, _ = group
    moves = []
    above, top, run = n + k + 1, 0, 0  # no value above the top field
    for s in reversed(fields):
        e = part >> s & mask
        if e != above:
            target = e + k
            if target <= n and above >= target:
                moves.append((k << s, weight * (run + 1) if above == target else weight))
            elif target <= n:
                step, v, h, count = (above - e) << s, above, top, 1
                for t in range(top + fields.step, fields.stop, fields.step):
                    w = part >> t & mask
                    if w > target:
                        break
                    if w != v:
                        step, v = step + ((w - v) << h), w
                    h, count = t, count + (w == target)
                moves.append((step + ((target - v) << h), weight * count))
            above, top, run = e, s, 0
        run += 1
    return moves


def factor_groups(space: ProjProduct) -> tuple[tuple[int, int], ...]:
    """Equal factors of space as (dimension, count) pairs, by increasing
    dimension."""
    return tuple((n, space.dims.count(n)) for n in sorted(set(space.dims)))


def invariant_rank(space: ProjProduct) -> int:
    """Rank of the subring invariant under permuting equal factors, the
    number of orbits of monomials: C(n + a, a) per group (n, a)."""
    return prod(comb(n + a, a) for n, a in factor_groups(space))


def _exponents(space: ProjProduct, exps) -> tuple | None:
    """exps as a tuple, or None when truncation sends it to zero."""
    exps = tuple(exps)
    if len(exps) != space.factor_count:
        raise ValueError("exponent vector length mismatch")
    if any(type(e) is not int for e in exps):  # not isinstance: a bool is refused
        raise ValueError(f"exponents must be ints: {exps}")
    if min(exps) < 0:
        raise ValueError("negative exponent")
    return None if any(map(gt, exps, space.dims)) else exps


def alpha(space: ProjProduct) -> ChowClass:
    """Sum of the hyperplane generators, the first Chern class of the
    (1,...,1) twist."""
    return _linear(space, (1,) * space.factor_count)


def _linear(space: ProjProduct, twist: tuple[int, ...]) -> ChowClass:
    """The linear class sum(c_j a_j) of a twist c with one entry per
    factor; a_j is never truncated, as every factor has dimension >= 1."""
    m = space.factor_count
    coeffs = {(0,) * j + (1,) + (0,) * (m - j - 1): c for j, c in enumerate(twist) if c}
    return ChowClass._trusted(space=space, coeffs=coeffs)


def deg(a: ChowClass) -> int:
    """Coefficient of the top monomial (all exponents maximal); zero when
    that monomial is absent, in particular for classes of lower degree."""
    return a.coeffs.get(a.space.dims, 0)


class LineTerm(Record):
    """Signed line bundle: sign in {+1,-1}, twist vector c in Z^m, first
    Chern class sum(c_j a_j) under the additive law."""

    _fields = ("sign", "twist")
    __slots__ = ()

    def __new__(cls, sign: int, twist: tuple[int, ...]) -> LineTerm:
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        twist = tuple(twist)
        if any(type(c) is not int for c in twist):  # not isinstance: a bool is refused
            raise ValueError(f"twist entries must be ints: {twist}")
        return cls._trusted(sign, twist)


class VirtualBundle(Record):
    """Finite signed list of line bundles on a ProjProduct."""

    _fields = ("space", "terms")
    __slots__ = ()

    def __new__(cls, space: ProjProduct, terms: tuple[LineTerm, ...]) -> VirtualBundle:
        terms, count = tuple(terms), space.factor_count
        for t in terms:
            if not isinstance(t, LineTerm):  # a subclass keeps its checks
                raise ValueError(f"terms must be LineTerms: {t!r}")
            _, twist = t
            if len(twist) != count:
                raise ValueError("twist vector length mismatch")
        return cls._trusted(space, terms)

    @property
    def virtual_rank(self) -> int:
        return sum(t.sign for t in self.terms)

    def __add__(self, other: "VirtualBundle") -> "VirtualBundle":
        if self.space != other.space:
            raise ValueError("ambient space mismatch")
        return VirtualBundle(self.space, self.terms + other.terms)

    def __neg__(self) -> "VirtualBundle":
        # repeated term objects, as tangent_bundle makes, are negated once
        negated: dict = {}
        for t in self.terms:
            if id(t) not in negated:
                negated[id(t)] = LineTerm._trusted(-t.sign, t.twist)
        return VirtualBundle._trusted(self.space, tuple([negated[id(t)] for t in self.terms]))

    def signed_twists(self) -> dict:
        """Each twist, in order of first appearance, with the sum of the
        signs of its terms."""
        signs: dict = {}
        for sign, twist in self.terms:
            signs[twist] = signs.get(twist, 0) + sign
        return signs

    def first_chern(self, term: LineTerm) -> ChowClass:
        if len(term.twist) != self.space.factor_count:
            raise ValueError("twist vector length mismatch")
        return _linear(self.space, term.twist)


def line_bundle(space: ProjProduct, twist, sign: int = 1) -> VirtualBundle:
    return VirtualBundle(space, (LineTerm(sign, tuple(twist)),))


def tangent_bundle(space: ProjProduct) -> VirtualBundle:
    """Factorwise Euler presentation: for each factor of dimension n,
    (n+1) copies of the unit twist on that factor, minus one trivial
    line bundle.  A space of total dimension above MAX_WORK is refused
    before any term is built: every space an expansion admits keeps its
    tangent bundle, its total dimension being at most its invariant rank."""
    dim = space.total_dimension
    check_work(dim, "tangent bundle of {} dimensions", dim)
    m = space.factor_count
    trivial = LineTerm._trusted(-1, (0,) * m)
    terms = []
    for i, n in enumerate(space.dims):
        # one term object for the n + 1 equal copies
        terms += [LineTerm._trusted(1, (0,) * i + (1,) + (0,) * (m - i - 1))] * (n + 1)
        terms.append(trivial)
    return VirtualBundle._trusted(space, tuple(terms))


def newton_class(v: VirtualBundle, n: int) -> ChowClass:
    """Signed sum of n-th powers of the first Chern classes of the terms.
    Additive on concatenation of term lists by construction.  Each
    distinct twist's power is computed once (`signed_twists`), and not at
    all when its signs cancel or when it is the trivial twist, whose first
    Chern class is zero for every n >= 1.  A twist on one factor has a
    class of one term, whose power is one step (`ChowClass.__pow__`).  The
    signed powers are collected into one coefficient dict, so the sum is
    not copied once per twist."""
    if n < 1:
        raise ValueError("n must be positive")
    terms = (
        (e, sign * c)
        for twist, sign in v.signed_twists().items()
        if sign and any(twist)
        for e, c in (_linear(v.space, twist) ** n).coeffs.items()
    )
    return ChowClass._trusted(space=v.space, coeffs=_sparse.collect(terms))


def cf_chern(v: VirtualBundle, I) -> ChowClass:
    """Conner-Floyd class c_I(v) (module docstring), with a factor b_p per
    distinct part p of I truncated above its multiplicity k_p, and one work
    count: b-monomials, powers, each series before it is built, products."""
    I, space, m = Partition(I), v.space, v.space.factor_count
    if I.weight > space.total_dimension:
        return ChowClass.zero(space)
    bounds = list(map(I.count, parts := sorted(set(I))))  # k_p for each distinct part p
    size, dims = prod(k + 1 for k in bounds), space.dims + tuple(bounds)
    check_work(spent := size * len(dims), "b-truncation of {} monomials on {} factors", size, len(dims))
    shifts, mask, _, _ = layout = _layout(dims)
    bits = shifts.step * m  # a key's b-monomial is the key >> bits
    # each b^J as (its packed key, |J|, its weight, |J|!/prod J_p!)
    monomials = [(sum(map(lshift, J, shifts[m:])), sum(J), sum(map(mul, J, parts)), multinomial(sum(J), J))
                 for J in product(*[range(k + 1) for k in bounds])]
    factors = []
    for twist, s in v.signed_twists().items():
        if not s or not any(twist):  # B(0)**s is 1
            continue
        powers, c = [{0: 1}], _sparse.pack(_linear(space, twist).coeffs, shifts)
        for power, spent in islice(_powers(c, layout, spent), I.weight):  # c**w up to the weight of I
            powers.append(power)
        # B(c)**s, with C(s, r) = (-1)**r C(r - s - 1, r) for s < 0; |J| <= its weight
        binomials = [comb(s, r) if s > 0 else (-1) ** r * comb(r - s - 1, r) for r in range(len(powers))]
        series = [(key, a, powers[w]) for key, r, w, n in monomials if w < len(powers) and (a := n * binomials[r])]
        work = sum(len(power) for _, _, power in series)
        check_work(spent := spent + work * len(dims), "series of {} terms, with the work before it,", work)
        factors.append({key + e: a * x for key, a, power in series for e, x in power.items()})
    others, *factors, last = [{0: 1}] * (2 - len(factors)) + factors  # at least two, padded by 1
    for factor in factors:
        others, spent = _mul(others, factor, layout, spent)
    # the last factor meets only the terms whose b-monomials complete b^I
    first, second = ({j: dict(g) for j, g in groupby(sorted(f.items()), lambda t: t[0] >> bits)}
                     for f in (others, last))
    top = sum(map(lshift, bounds, shifts))
    pairs = [(a, b) for j, a in first.items() if (b := second.get(top - j))]
    work = spent + sum(len(a) * len(b) for a, b in pairs) * len(dims)
    check_work(work, "b^I coefficient of {} x {} terms, with the work before it,", len(others), len(last))
    terms = [t for a, b in pairs for t in _mul(a, b, layout)[0].items()]
    return ChowClass._trusted(space, _sparse.unpack(_sparse.collect(terms), shifts[:m], mask))
