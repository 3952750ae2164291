"""Exact mutual-information checks on discrete variables.

The independent oracle for MI is the entropy identity
I(X;Z) = H(X) + H(Z) - H(X,Z), coded separately from the direct summation.
"""

import numpy as np
import pytest

from irae.infotheory import (
    DiscreteJoint,
    FiniteMap,
    entropy,
    iter_all_maps,
    mutual_information,
    information_preservation_check,
    push_forward,
)


def mi_entropy_oracle(joint):
    """Second, independently coded MI: H(X) + H(Z) - H(X,Z)."""
    return entropy(joint.marginal_x()) + entropy(joint.marginal_z()) - entropy(
        joint.table.ravel()
    )


def random_joint(rng, nx, nz):
    table = rng.uniform(0, 1, (nx, nz))
    return DiscreteJoint(table / table.sum())


class TestDiscreteJoint:
    def test_validates_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            DiscreteJoint(np.full((2, 2), 0.3))

    def test_validates_nonnegative(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteJoint(np.array([[1.2, -0.2], [0.0, 0.0]]))

    def test_marginals(self):
        joint = DiscreteJoint(np.array([[0.1, 0.2], [0.3, 0.4]]))
        np.testing.assert_allclose(joint.marginal_x(), [0.3, 0.7])
        np.testing.assert_allclose(joint.marginal_z(), [0.4, 0.6])


class TestMutualInformation:
    def test_independent_uniform_is_zero(self):
        assert mutual_information(DiscreteJoint(np.full((2, 2), 0.25))) == 0.0

    def test_diagonal_identity_is_two_bits(self):
        assert mutual_information(DiscreteJoint(np.eye(4) / 4.0)) == pytest.approx(2.0, abs=1e-12)

    def test_matches_entropy_oracle_on_random_joints(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            joint = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            assert mutual_information(joint) == pytest.approx(
                mi_entropy_oracle(joint), abs=1e-12
            )

    def test_nonnegative_and_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            joint = random_joint(rng, 4, 3)
            mi = mutual_information(joint)
            assert mi >= -1e-12
            assert mi == pytest.approx(mutual_information(DiscreteJoint(joint.table.T)), abs=1e-12)

    def test_zero_entries_contribute_zero(self):
        joint = DiscreteJoint(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(joint) == pytest.approx(1.0, abs=1e-15)


class TestPushForward:
    def test_identity_gives_diagonal(self):
        joint = push_forward(np.full(4, 0.25), FiniteMap((0, 1, 2, 3)))
        np.testing.assert_array_equal(joint.table, np.eye(4) / 4.0)

    def test_constant_gives_single_column(self):
        joint = push_forward(np.full(4, 0.25), FiniteMap((0, 0, 0, 0), 1))
        assert joint.table.shape == (4, 1)
        np.testing.assert_array_equal(joint.table[:, 0], np.full(4, 0.25))

    def test_parity_map_two_columns(self):
        joint = push_forward(np.full(4, 0.25), FiniteMap((0, 1, 0, 1), 2))
        expected = np.zeros((4, 2))
        expected[[0, 2], 0] = 0.25
        expected[[1, 3], 1] = 0.25
        np.testing.assert_array_equal(joint.table, expected)

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError, match="probability"):
            push_forward(np.array([0.5, 0.6]), FiniteMap((0, 1)))


class TestInformationPreservation:
    def test_identity_preserves_everything(self):
        r = information_preservation_check(np.full(4, 0.25), FiniteMap((0, 1, 2, 3)))
        assert r.injective
        assert r.entropy_x == pytest.approx(2.0, abs=1e-12)
        assert r.mutual_info == pytest.approx(2.0, abs=1e-12)
        assert r.info_loss == pytest.approx(0.0, abs=1e-12)
        assert r.conditional_certain

    def test_parity_loses_one_bit(self):
        r = information_preservation_check(np.full(4, 0.25), FiniteMap((0, 1, 0, 1), 2))
        assert not r.injective
        assert r.mutual_info == pytest.approx(1.0, abs=1e-12)
        assert r.info_loss == pytest.approx(1.0, abs=1e-12)
        assert not r.conditional_certain

    def test_permutations_lossless_on_8_symbols(self):
        rng = np.random.default_rng(2)
        px = np.full(8, 0.125)
        for _ in range(10):
            perm = tuple(int(v) for v in rng.permutation(8))
            r = information_preservation_check(px, FiniteMap(perm))
            assert r.injective
            assert r.info_loss == pytest.approx(0.0, abs=1e-12)

    def test_injectivity_judged_on_support(self):
        # collides only outside the support, so no information is lost
        px = np.array([0.5, 0.5, 0.0, 0.0])
        f = FiniteMap((0, 1, 0, 1), 2)
        r = information_preservation_check(px, f)
        assert r.injective
        assert r.info_loss == pytest.approx(0.0, abs=1e-12)
        assert not f.injective_on(range(f.domain))  # but not injective on the whole domain

    def test_exhaustive_small_domains(self):
        # every deterministic map on up to 4 symbols: MI = H(X) iff injective
        for n in (2, 3, 4):
            px = np.full(n, 1.0 / n)
            h = entropy(px)
            for fmap in iter_all_maps(n, n):
                r = information_preservation_check(px, fmap)
                assert r.mutual_info <= h + 1e-12
                if r.injective:
                    assert abs(r.mutual_info - h) <= 1e-12
                    assert r.conditional_certain
                else:
                    assert r.info_loss > 1e-12
                    assert not r.conditional_certain

    def test_bijection_on_outputs_preserves_mi(self):
        # discrete analogue of invariance under invertible output transforms
        rng = np.random.default_rng(3)
        px = np.array([0.4, 0.3, 0.2, 0.1])
        f = FiniteMap((1, 0, 1, 2), 3)
        base = mutual_information(push_forward(px, f))
        for _ in range(10):
            perm = rng.permutation(3)
            g_of_f = FiniteMap(tuple(int(perm[f(x)]) for x in range(4)), 3)
            assert mutual_information(push_forward(px, g_of_f)) == pytest.approx(
                base, abs=1e-12
            )


class TestFiniteMap:
    def test_injectivity_predicate(self):
        assert FiniteMap((2, 0, 1)).injective_on(range(3))
        assert not FiniteMap((0, 0, 1)).injective_on(range(3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="values must lie"):
            FiniteMap((0, 3), 2)
