"""Permutations of {0, ..., n-1}.

Points are 0-based in memory; every parsed or printed form uses 1-based
disjoint-cycle notation such as ``(1,2)(3,4)``.

A permutation built from outside data (``Permutation(...)``, ``from_cycles``,
``parse_cycles``) is checked to be a bijection.  Products, inverses, powers
and direct sums of permutations are bijections by construction and skip that
check.
"""

from __future__ import annotations

from functools import total_ordering
from math import lcm

from .errors import CycleParseError, PreconditionError


@total_ordering
class Permutation:
    """A bijection of {0, ..., degree-1}; immutable, compares, hashes and
    sorts by image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        object.__setattr__(self, "images", images)
        self.__post_init__()

    def __post_init__(self) -> None:
        n = len(self.images)
        seen = [False] * n
        for i in self.images:
            if not isinstance(i, int) or i < 0 or i >= n or seen[i]:
                raise PreconditionError("image sequence is not a bijection")
            seen[i] = True

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Permutation is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Permutation is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        return self.images == other.images if other.__class__ is Permutation else NotImplemented

    def __hash__(self) -> int:
        # The hash of the one-field tuple, so sets of permutations keep their
        # iteration order.
        return hash((self.images,))

    def __lt__(self, other: Permutation) -> bool:
        return self.images < other.images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: Permutation) -> Permutation:
        # Left-to-right composition: (p * q) moves a point by p, then by q.
        if other.degree != self.degree:
            raise PreconditionError("degree mismatch")
        return _trusted(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> Permutation:
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return _trusted(tuple(inv))

    def __pow__(self, n: int) -> Permutation:
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return identity(self.degree)
        result = None
        base = self
        while True:  # square-and-multiply; no square after the top bit
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        """The lcm of the cycle lengths, counted without building the cycles."""
        images = self.images
        seen = [False] * len(images)
        lengths = set()
        for start, j in enumerate(images):
            if seen[start] or j == start:
                continue
            length = 1
            while j != start:
                seen[j] = True
                j = images[j]
                length += 1
            lengths.add(length)
        return lcm(*lengths)

    def conjugated_by(self, x: Permutation) -> Permutation:
        return x.inverse() * self * x

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles of length >= 2, 0-based, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                continue
            cycle = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_string(self) -> str:
        """Canonical 1-based form: cycles sorted by smallest moved point."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}]{self.cycle_string()}"


_set_images = Permutation.images.__set__  # the slot's own setter, past __setattr__


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A Permutation on images that are a bijection by construction, unchecked."""
    perm = object.__new__(Permutation)
    _set_images(perm, images)
    return perm


def identity(degree: int) -> Permutation:
    return _trusted(tuple(range(degree)))


def direct_sum(perms: list[Permutation] | tuple[Permutation, ...]) -> Permutation:
    """The permutations side by side: block k acts as perms[k] on the points
    after the degrees of the blocks before it."""
    images: list[int] = []
    for perm in perms:
        offset = len(images)
        images.extend(offset + j for j in perm.images)
    return _trusted(tuple(images))


def from_cycles(degree: int, cycles: list[tuple[int, ...]] | tuple[tuple[int, ...], ...]) -> Permutation:
    """Build a permutation from 0-based disjoint cycles."""
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if images[a] != a:
                raise PreconditionError(f"cycles are not disjoint at point {a + 1}")
            images[a] = b
    return Permutation(tuple(images))


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint-cycle notation, e.g. ``(1,2)(3,4)``.

    Raises CycleParseError with the 1-based column of the first offence:
    unbalanced parentheses, repeated points, points outside 1..degree.
    """
    used: set[int] = set()
    cycles: list[tuple[int, ...]] = []
    i = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    skip_ws()
    if i == n:
        raise CycleParseError("empty permutation (use '()' for the identity)", i + 1)
    while i < n:
        if text[i] != "(":
            raise CycleParseError(f"expected '(' but found {text[i]!r}", i + 1)
        i += 1
        cycle: list[int] = []
        while True:
            skip_ws()
            if i >= n:
                raise CycleParseError("unterminated cycle", i + 1)
            if text[i] == ")":
                i += 1
                break
            if cycle:
                if text[i] != ",":
                    raise CycleParseError(f"expected ',' or ')' but found {text[i]!r}", i + 1)
                i += 1
                skip_ws()
            start = i
            while i < n and text[i] in "0123456789":  # ASCII only: int() refuses some Unicode digits
                i += 1
            if i == start:
                raise CycleParseError("expected a point number", i + 1)
            digits = text[start:i].lstrip("0")
            if len(digits) > len(str(degree)):  # too long to convert, and above the degree
                raise CycleParseError(f"point {digits[:12]}... exceeds degree {degree}", start + 1)
            point = int(text[start:i])
            if point < 1:
                raise CycleParseError("points are 1-based", start + 1)
            if point > degree:
                raise CycleParseError(f"point {point} exceeds degree {degree}", start + 1)
            if point - 1 in used:
                raise CycleParseError(f"repeated point {point}", start + 1)
            used.add(point - 1)
            cycle.append(point - 1)
        if len(cycle) > 1:
            cycles.append(tuple(cycle))
        skip_ws()
    return from_cycles(degree, cycles)
