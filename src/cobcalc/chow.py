"""Degree-diagonal cohomology of a product of projective spaces, as the
truncated polynomial ring Z[a1..am]/(a_i^{n_i+1}), with the degree map,
virtual sums of line bundles under the additive first-Chern-class law, and
their Newton and Conner-Floyd classes.

Classes are sparse dicts keyed by exponent vectors bounded componentwise by
the factor dimensions, with their sums and products computed in `_sparse`;
truncation is a bound check during multiplication.
Only sums of line bundles appear as bundles: every bundle computed with
here splits into such a sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, gt

from . import _sparse
from .partitions import Partition, enumerate_partitions


@dataclass(frozen=True)
class ProjProduct:
    """Product of projective spaces with the given factor dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if not dims or any(n < 1 for n in dims):
            raise ValueError(f"factor dimensions must be positive: {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dimension(self) -> int:
        return sum(self.dims)

    @property
    def factor_count(self) -> int:
        return len(self.dims)

    def __repr__(self) -> str:
        return "ProjProduct" + repr(self.dims)


@dataclass(frozen=True)
class ChowClass:
    """Element of the truncated ring of a ProjProduct."""

    space: ProjProduct
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        terms = ((_exponents(self.space, e), c) for e, c in self.coeffs.items())
        object.__setattr__(self, "coeffs", _sparse.collect(terms))

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
        dims = self.space.dims

        def combine(ea, eb):
            e = tuple(map(add, ea, eb))
            return None if any(map(gt, e, dims)) else e

        return self._result(_sparse.mul(self.coeffs, other.coeffs, combine))

    def __pow__(self, n: int) -> "ChowClass":
        # iterated multiplication: bases here are sparse (few terms) while
        # intermediate powers fill the truncated ring, so repeated squaring
        # would pair large intermediates against each other; a class without
        # a degree-0 term is nilpotent, so the loop ends once the power is zero
        if n < 0:
            raise ValueError("negative power")
        result = ChowClass.one(self.space)
        for _ in range(n):
            if not result.coeffs:
                break
            result = result * self
        return result

    def scale(self, a: int) -> "ChowClass":
        return self._result(_sparse.scale(self.coeffs, a))

    def _result(self, coeffs: dict) -> "ChowClass":
        return _sparse.wrap(ChowClass, coeffs, space=self.space)


def _exponents(space: ProjProduct, exps) -> tuple | None:
    """exps as a tuple, or None when truncation sends it to zero."""
    exps = tuple(exps)
    if len(exps) != space.factor_count:
        raise ValueError("exponent vector length mismatch")
    if min(exps) < 0:
        raise ValueError("negative exponent")
    return None if any(map(gt, exps, space.dims)) else exps


def alpha(space: ProjProduct) -> ChowClass:
    """Sum of the hyperplane generators, the first Chern class of the
    (1,...,1) twist."""
    m = space.factor_count
    coeffs = {}
    for i in range(m):
        e = [0] * m
        e[i] = 1
        coeffs[tuple(e)] = 1
    return ChowClass(space, coeffs)


def generator(space: ProjProduct, i: int) -> ChowClass:
    e = [0] * space.factor_count
    e[i] = 1
    return ChowClass(space, {tuple(e): 1})


def deg(a: ChowClass) -> int:
    """Coefficient of the top monomial (all exponents maximal); zero when
    that monomial is absent, in particular for classes of lower degree."""
    return a.coeffs.get(a.space.dims, 0)


@dataclass(frozen=True)
class LineTerm:
    """Signed line bundle: sign in {+1,-1}, twist vector c in Z^m, first
    Chern class sum(c_j a_j) under the additive law."""

    sign: int
    twist: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "twist", tuple(int(c) for c in self.twist))


@dataclass(frozen=True)
class VirtualBundle:
    """Finite signed list of line bundles on a ProjProduct."""

    space: ProjProduct
    terms: tuple[LineTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        for t in terms:
            if len(t.twist) != self.space.factor_count:
                raise ValueError("twist vector length mismatch")
        object.__setattr__(self, "terms", terms)

    @property
    def virtual_rank(self) -> int:
        return sum(t.sign for t in self.terms)

    def __add__(self, other: "VirtualBundle") -> "VirtualBundle":
        if self.space != other.space:
            raise ValueError("ambient space mismatch")
        return VirtualBundle(self.space, self.terms + other.terms)

    def __neg__(self) -> "VirtualBundle":
        return VirtualBundle(
            self.space, tuple(LineTerm(-t.sign, t.twist) for t in self.terms)
        )

    def first_chern(self, term: LineTerm) -> ChowClass:
        out = ChowClass.zero(self.space)
        for j, c in enumerate(term.twist):
            if c:
                out = out + generator(self.space, j).scale(c)
        return out


def line_bundle(space: ProjProduct, twist, sign: int = 1) -> VirtualBundle:
    return VirtualBundle(space, (LineTerm(sign, tuple(twist)),))


def trivial_bundle(space: ProjProduct, sign: int = 1) -> VirtualBundle:
    return line_bundle(space, (0,) * space.factor_count, sign)


def tangent_bundle(space: ProjProduct) -> VirtualBundle:
    """Factorwise Euler presentation: for each factor of dimension n,
    (n+1) copies of the unit twist on that factor, minus one trivial
    line bundle."""
    m = space.factor_count
    terms = []
    for i, n in enumerate(space.dims):
        unit = [0] * m
        unit[i] = 1
        terms.extend(LineTerm(1, tuple(unit)) for _ in range(n + 1))
        terms.append(LineTerm(-1, (0,) * m))
    return VirtualBundle(space, tuple(terms))


def newton_class(v: VirtualBundle, n: int) -> ChowClass:
    """Signed sum of n-th powers of the first Chern classes of the terms.
    Additive on concatenation of term lists by construction."""
    if n < 1:
        raise ValueError("n must be positive")
    out = ChowClass.zero(v.space)
    for term in v.terms:
        out = out + (v.first_chern(term) ** n).scale(term.sign)
    return out


# ---------------------------------------------------------------------------
# Conner-Floyd classes via generating series in partition-indexed variables
# ---------------------------------------------------------------------------
#
# The series of a single line bundle with root x is 1 + x t_1 + x^2 t_2 + ...;
# a sum of line bundles multiplies the series, a negative term contributes the
# truncated multiplicative inverse.  The coefficient of t_I is the I-th class.


def _series_mul(a: dict, b: dict, space: ProjProduct, cap: int) -> dict:
    out: dict = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            if pa.weight + pb.weight > cap:
                continue
            key = pa.concat(pb)
            prod = ca * cb
            if key in out:
                out[key] = out[key] + prod
            else:
                out[key] = prod
    return {p: c for p, c in out.items() if c.coeffs}


def _line_series(v: VirtualBundle, term: LineTerm, cap: int) -> dict:
    root = v.first_chern(term)
    series = {Partition(): ChowClass.one(v.space)}
    power = ChowClass.one(v.space)
    for n in range(1, cap + 1):
        power = power * root
        if power.coeffs:
            series[Partition((n,))] = power
    return series


def _series_inverse(a: dict, space: ProjProduct, cap: int) -> dict:
    """Inverse of a series with constant term 1, to total weight cap."""
    inv = {Partition(): ChowClass.one(space)}
    for w in range(1, cap + 1):
        for target in enumerate_partitions(w):
            acc = ChowClass.zero(space)
            for p, c in a.items():
                if p.weight == 0 or p.weight > w:
                    continue
                # need q with p + q = target as multisets
                q = _multiset_difference(target, p)
                if q is None:
                    continue
                b = inv.get(q)
                if b is not None:
                    acc = acc + (c * b)
            if acc.coeffs:
                inv[target] = -acc
    return inv


def _multiset_difference(whole: Partition, part: Partition) -> Partition | None:
    remaining = list(whole)
    for x in part:
        if x in remaining:
            remaining.remove(x)
        else:
            return None
    return Partition(remaining)


def cf_series(v: VirtualBundle, cap: int) -> dict:
    """Total Conner-Floyd series of v to total weight cap, as a dict
    Partition -> ChowClass.  Positive terms multiply their line series,
    negative terms multiply the truncated inverse."""
    out = {Partition(): ChowClass.one(v.space)}
    for term in v.terms:
        series = _line_series(v, LineTerm(1, term.twist), cap)
        if term.sign < 0:
            series = _series_inverse(series, v.space, cap)
        out = _series_mul(out, series, v.space, cap)
    return out


def cf_chern(v: VirtualBundle, I) -> ChowClass:
    """Coefficient of t_I in the Conner-Floyd series of v."""
    I = Partition(I)
    series = cf_series(v, I.weight)
    return series.get(I, ChowClass.zero(v.space))
