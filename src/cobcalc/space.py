"""Products of projective spaces, the ambient spaces of the package.

The class lives apart from the ring that computes on it (`chow`), so that
a caller who only builds and lists spaces, such as `stong.valuation_table`,
imports neither the ring nor its sparse arithmetic.  `chow` imports it from
here, so `chow.ProjProduct` and `cobcalc.ProjProduct` are this class.
"""

from __future__ import annotations

from ._record import Record


class ProjProduct(Record):
    """Product of projective spaces with the given factor dimensions."""

    _fields = ("dims",)
    __slots__ = ()

    def __new__(cls, dims: tuple[int, ...]) -> ProjProduct:
        dims = tuple(dims)
        if set(map(type, dims)) != {int} or min(dims) < 1:  # not isinstance: a bool is refused
            raise ValueError(f"factor dimensions must be positive ints: {dims}")
        return cls._trusted(dims)

    @property
    def total_dimension(self) -> int:
        return sum(self.dims)

    @property
    def factor_count(self) -> int:
        return len(self.dims)

    def __repr__(self) -> str:
        return self.__class__.__name__ + repr(self.dims)
