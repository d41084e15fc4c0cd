"""Hamilton relations, bilinearity, zero divisors, and the scalar/vector
split, over numeric and symbolic coefficient rings."""

import random

from fracquat import CanonicalExpr, ComplexQuaternion, canon, cross, dot, qmul, sc, vec
from fracquat import CYLINDRICAL as CYL


def Q(q0, q1, q2, q3):
    return ComplexQuaternion(complex(q0), complex(q1), complex(q2), complex(q3))


ONE = Q(1, 0, 0, 0)
I1 = Q(0, 1, 0, 0)
I2 = Q(0, 0, 1, 0)
I3 = Q(0, 0, 0, 1)


def rand_quat(rng):
    return Q(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)))


class TestHamiltonRelations:
    def test_i1_i2_is_i3(self):
        assert qmul(I1, I2) == I3

    def test_unit_squares(self):
        for unit in (I1, I2, I3):
            assert qmul(unit, unit) == Q(-1, 0, 0, 0)

    def test_triple_product(self):
        assert qmul(qmul(I1, I2), I3) == Q(-1, 0, 0, 0)

    def test_identity(self):
        rng = random.Random(7)
        p = rand_quat(rng)
        assert qmul(p, ONE) == p
        assert qmul(ONE, p) == p

    def test_anticommuting_units(self):
        assert qmul(I1, I2) == -qmul(I2, I1)


class TestVectorOperations:
    def test_orthogonal_dot(self):
        assert dot(I1, I2) == 0

    def test_cross_of_axes(self):
        assert cross(I1, I2) == I3
        assert cross(I2, I3) == I1
        assert cross(I3, I1) == I2

    def test_dot_is_bilinear_not_hermitian(self):
        p = Q(0, 1j, 0, 0)
        assert dot(p, p) == -1

    def test_pure_vector_product(self):
        p, q = I1, I2
        prod = qmul(p, q)
        assert sc(prod) == -dot(p, q)
        assert vec(prod) == cross(p, q)


class TestScalarVectorSplit:
    def test_projections(self):
        q = Q(2, 3, 0, 0)
        assert sc(q) == 2
        assert vec(q) == Q(0, 3, 0, 0)

    def test_pure_vector_has_zero_scalar(self):
        assert sc(I2) == 0

    def test_reconstruction(self):
        rng = random.Random(11)
        q = rand_quat(rng)
        assert ComplexQuaternion(sc(q), 0j, 0j, 0j) + vec(q) == q


class TestAlgebraLaws:
    def test_associativity_numeric(self):
        rng = random.Random(13)
        for _ in range(25):
            p, q, r = (rand_quat(rng) for _ in range(3))
            lhs = qmul(qmul(p, q), r)
            rhs = qmul(p, qmul(q, r))
            assert all(
                abs(a - b) < 1e-12 for a, b in zip(lhs.components, rhs.components)
            )

    def test_distributivity_numeric(self):
        rng = random.Random(17)
        for _ in range(25):
            p, q, r = (rand_quat(rng) for _ in range(3))
            lhs = qmul(p, q + r)
            rhs = qmul(p, q) + qmul(p, r)
            assert all(
                abs(a - b) < 1e-12 for a, b in zip(lhs.components, rhs.components)
            )

    def test_associativity_symbolic(self):
        zero = CanonicalExpr.zero()
        p = ComplexQuaternion(canon("f0", CYL), canon("P(r,1)", CYL), zero, zero)
        q = ComplexQuaternion(zero, canon("sina(theta)", CYL), canon("cosa(theta)", CYL), zero)
        r = ComplexQuaternion(canon("lam", CYL), zero, zero, canon("f1", CYL))
        lhs = qmul(qmul(p, q), r)
        rhs = qmul(p, qmul(q, r))
        assert all((a - b).is_zero() for a, b in zip(lhs.components, rhs.components))

    def test_operators_with_scalars_and_other_types(self):
        p = Q(1, 2, 3, 4)
        assert -p == p - 2 * p == Q(-1, -2, -3, -4)
        assert p * 2 == 2 * p == Q(2, 4, 6, 8)
        assert p * I1 == qmul(p, I1)
        assert (p == 1) is False
        assert hash(p) == hash(Q(1, 2, 3, 4))
        assert repr(ONE) == "ComplexQuaternion((1+0j), 0j, 0j, 0j)"

    def test_zero_divisors_exist(self):
        i = 1j
        p = Q(1, i, 0, 0)
        q = Q(1, -i, 0, 0)
        assert qmul(p, q) == Q(0, 0, 0, 0)

    def test_complex_unit_commutes_with_quaternionic_units(self):
        rng = random.Random(19)
        q = rand_quat(rng)
        assert q.scale(1j) == ComplexQuaternion(1j * q.q0, 1j * q.q1, 1j * q.q2, 1j * q.q3)
        # scaling by i before or after a quaternion product is the same
        p = rand_quat(rng)
        lhs = qmul(p.scale(1j), q)
        rhs = qmul(p, q.scale(1j))
        assert all(abs(a - b) < 1e-12 for a, b in zip(lhs.components, rhs.components))
