import cmath
import random

import pytest

from orbicalc.cyclotomic import CycInt, cyclotomic_polynomial

from .helpers import from_root_multiplicities, is_real, poly_reduce, root_of_unity


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_sums_to_zero():
    # 1 + z + z^2 = 0 in Z[zeta_3]
    s = sum(
        (root_of_unity(3, k) for k in range(3)),
        CycInt.from_int(3, 0),
    )
    assert s.is_zero()


def test_multiplication_matches_complex():
    for n in (3, 4, 5, 6, 8, 12):
        a = root_of_unity(n, 1) + CycInt.from_int(n, 2)
        b = root_of_unity(n, n - 1) - CycInt.from_int(n, 1)
        exact = complex(a * b)
        approx = complex(a) * complex(b)
        assert abs(exact - approx) < 1e-9


def test_conjugate_and_norm():
    z = root_of_unity(5, 1)
    n = (z + CycInt.from_int(5, 1)) * (z + CycInt.from_int(5, 1)).conjugate()
    # |1 + zeta_5|^2 = 2 + 2 cos(2 pi / 5), not rational
    assert not n.is_integer()
    assert is_real(n)


def test_lift_preserves_value():
    z3 = root_of_unity(3, 1)
    z3_in_12 = z3.lift(12)
    assert z3_in_12 == root_of_unity(12, 4)
    assert abs(complex(z3) - complex(z3_in_12)) < 1e-12


def test_galois_permutes_roots():
    z = root_of_unity(7, 1)
    assert z.galois(3) == root_of_unity(7, 3)
    assert z.galois(-1) == z.conjugate()


def test_divide_exact():
    v = CycInt.from_int(4, 6) + 2 * root_of_unity(4, 1)
    half = v.divide_exact(2)
    assert half == CycInt.from_int(4, 3) + root_of_unity(4, 1)
    with pytest.raises(ValueError):
        v.divide_exact(4)


def test_as_int():
    assert (root_of_unity(8, 2) * root_of_unity(8, 6)).as_int() == 1
    with pytest.raises(ValueError):
        root_of_unity(8, 1).as_int()


def test_str_roundtrip_is_stable():
    v = CycInt.from_int(6, 1) - root_of_unity(6, 1)
    assert str(v) == "1 - z6"


def test_root_multiplicities_evaluates_correctly():
    mults = [1, 0, 2, 0, 0, 1]
    v = from_root_multiplicities(6, mults)
    w = sum(
        m * cmath.exp(2j * cmath.pi * k / 6) for k, m in enumerate(mults)
    )
    assert abs(complex(v) - w) < 1e-9


def test_reduction_equals_polynomial_division():
    # Random vectors over 1..zeta^(L-1) at the lengths CycInt meets: a full
    # period (galois, lift), a product of two reduced values, and several
    # periods that must fold first.
    rng = random.Random(11)
    for n in range(1, 121):
        phi = len(cyclotomic_polynomial(n)) - 1
        for length in (n, 2 * phi - 1, 3 * n):
            for _ in range(3):
                raw = tuple(rng.randint(-50, 50) for _ in range(length))
                assert CycInt(n, raw).coeffs == poly_reduce(n, raw), (n, length)
