from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import shifted
from twoclosure.errors import CycleParseError, PreconditionError
from twoclosure.perm import Permutation, direct_sum, from_cycles, identity, parse_cycles

perms6 = st.permutations(range(6)).map(lambda xs: Permutation(tuple(xs)))


def perms_of(degree: int):
    return st.permutations(range(degree)).map(lambda xs: Permutation(tuple(xs)))


# Lists of pairs of equal-degree permutations, degrees 0..5, at most 5 blocks.
block_pairs = st.lists(st.integers(0, 5), max_size=5).flatmap(
    lambda degrees: st.tuples(*(st.tuples(perms_of(n), perms_of(n)) for n in degrees))
)


def test_validation_rejects_non_bijections():
    with pytest.raises(PreconditionError):
        Permutation((0, 0, 1))
    with pytest.raises(PreconditionError):
        Permutation((0, 3))
    with pytest.raises(PreconditionError, match="not disjoint"):
        from_cycles(4, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionError, match="degree mismatch"):
        identity(3) * identity(4)


@given(perms6, perms6, st.integers(-7, 7))
def test_products_inverses_and_powers_equal_validated_permutations(a, b, n):
    # They skip the bijection check, so they must still behave exactly like
    # a Permutation built, and checked, from the same images.
    derived = [a * b, a.inverse(), a**n, a.conjugated_by(b), identity(6)]
    for p in derived:
        checked = Permutation(tuple(p.images))
        assert p == checked and hash(p) == hash(checked)
        assert not p < checked and not checked < p
    checked = [Permutation(tuple(p.images)) for p in derived]
    assert sorted(derived) == sorted(checked)
    assert [p.images for p in sorted(derived)] == sorted(p.images for p in derived)
    assert len(set(derived) | set(checked)) == len(set(checked))


@given(block_pairs)
def test_direct_sum_places_each_block_shifted(pairs):
    a = [x for x, _ in pairs]
    total = sum(x.degree for x in a)
    summed = direct_sum(a)
    assert summed.degree == total and summed == Permutation(tuple(summed.images))
    offset = 0
    for x in a:
        block = slice(offset, offset + x.degree)
        assert summed.images[block] == shifted(x, offset, total).images[block]
        offset += x.degree


@given(block_pairs)
def test_direct_sum_multiplies_and_inverts_block_by_block(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    assert direct_sum(a) * direct_sum(b) == direct_sum([x * y for x, y in pairs])
    assert direct_sum(a).inverse() == direct_sum([x.inverse() for x in a])


def test_direct_sum_of_nothing_is_the_degree_zero_identity():
    assert direct_sum([]) == identity(0) and direct_sum([]).degree == 0


def test_composition_is_apply_left_then_right():
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(2,3)", 3)
    assert (p * q).images[0] == q.images[p.images[0]]
    assert (p * q).cycle_string() == "(1,3,2)"


@given(perms6, perms6, perms6)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms6)
def test_two_sided_inverse(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perms6)
def test_cycle_string_round_trip(p):
    assert parse_cycles(p.cycle_string(), 6) == p


def test_powers_and_order():
    c = parse_cycles("(1,2,3,4)", 4)
    assert c**2 == parse_cycles("(1,3)(2,4)", 4)
    assert c**-1 == c**3
    assert c.order() == 4
    assert identity(5).order() == 1


@pytest.mark.parametrize("cycles", ["()", "(1,2)", "(1,2,3,4,5)", "(1,2)(3,4,5)", "(1,3,5,2,4,6)"])
def test_powers_equal_repeated_products(cycles):
    p = parse_cycles(cycles, 6)
    for k in range(-3, 10):
        step = p if k >= 0 else p.inverse()
        expected = identity(6)
        for _ in range(abs(k)):
            expected = expected * step
        assert p**k == expected, k


def test_square_forms_one_product(monkeypatch):
    b = parse_cycles("(1,2,3,4,5)", 5)
    square = parse_cycles("(1,3,5,2,4)", 5)
    products = []
    mul = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__", lambda self, other: products.append(other) or mul(self, other))
    assert b**2 == square
    assert len(products) == 1


def test_permutations_are_immutable():
    p = parse_cycles("(1,2)", 3)
    with pytest.raises(AttributeError):
        p.images = (0, 1, 2)
    with pytest.raises(AttributeError):
        del p.images
    assert p.images == (1, 0, 2)


@given(st.permutations(range(9)))
def test_order_is_lcm_of_cycle_lengths(images):
    p = Permutation(tuple(images))
    assert p.order() == lcm(*(len(c) for c in p.cycles()))
    assert (p ** p.order()).is_identity()


def test_canonical_cycle_string():
    p = from_cycles(6, [(4, 5), (0, 1)])
    assert p.cycle_string() == "(1,2)(5,6)"
    assert identity(4).cycle_string() == "()"


def test_parse_errors_carry_columns():
    with pytest.raises(CycleParseError) as err:
        parse_cycles("(1,2", 4)
    assert err.value.column == 5
    with pytest.raises(CycleParseError) as err:
        parse_cycles("(1,2)(2,3)", 4)
    assert "repeated point 2" in err.value.reason
    with pytest.raises(CycleParseError) as err:
        parse_cycles("(1,2,5)", 4)
    assert "exceeds degree" in err.value.reason
    with pytest.raises(CycleParseError):
        parse_cycles("1,2)", 4)
    for text, reason, column in (
        ("(1 2)", "expected ',' or ')' but found '2'", 4),
        ("(1,2;3)", "expected ',' or ')' but found ';'", 5),
        ("(0,1)", "points are 1-based", 2),
        ("(2, 00)", "points are 1-based", 5),
    ):
        with pytest.raises(CycleParseError) as err:
            parse_cycles(text, 4)
        assert (err.value.reason, err.value.column) == (reason, column)
    assert parse_cycles("()", 4).is_identity()
    assert parse_cycles(" (1,2) (3,4) ", 4) == from_cycles(4, [(0, 1), (2, 3)])


def test_points_are_ascii_numbers_of_any_length():
    # int() refuses '²' and any run of more than 4300 digits; the parser
    # refuses both, and every other non-ASCII digit, first.
    for text in ("(1,²)", "(1,٣)", "(1," + "9" * 5000 + ")"):
        with pytest.raises(CycleParseError) as err:
            parse_cycles(text, 4)
        assert err.value.column == 4
    assert parse_cycles("(001,0004)", 4) == from_cycles(4, [(0, 3)])
