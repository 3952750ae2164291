"""Exact information checks of deterministic maps on discrete variables.

The independent oracle for MI is the entropy identity
I(X;Z) = H(X) + H(Z) - H(X,Z), evaluated on a dense joint table built here,
apart from the output-count form under test.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irae.infotheory import entropy, iter_all_maps, information_preservation_check


def oracle_entropy(p):
    return -sum(q * math.log2(q) for q in np.ravel(p) if q > 0)


def oracle_mi(px, labels):
    """H(X) + H(Z) - H(X,Z) from the dense joint P(x, z) = px(x) [f(x) = z]."""
    values = sorted(set(labels))
    joint = np.zeros((len(px), len(values)))
    for x, z in enumerate(labels):
        joint[x, values.index(z)] = px[x]
    return (
        oracle_entropy(joint.sum(axis=1))
        + oracle_entropy(joint.sum(axis=0))
        - oracle_entropy(joint)
    )


@st.composite
def px_and_labels(draw):
    """px from integer weights 0..10, so any merge on the support loses well
    over 1e-12 bits, and labels over a wide range of integer values."""
    n = draw(st.integers(1, 8))
    weights = draw(
        st.lists(st.integers(0, 10), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    )
    labels = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n))
    if draw(st.booleans()):  # collisions among few values are the interesting case
        labels = [v % 3 for v in labels]
    return np.array(weights, dtype=np.float64) / sum(weights), labels


class TestEntropy:
    def test_certain_outcome_is_positive_zero(self):
        assert math.copysign(1.0, entropy([1.0])) == 1.0


class TestMutualInformation:
    def test_independent_uniform_is_zero(self):
        # a constant map's output is independent of its input
        r = information_preservation_check(np.full(4, 0.25), (7, 7, 7, 7))
        assert r.mutual_info == 0.0
        assert math.copysign(1.0, r.mutual_info) == 1.0

    def test_diagonal_identity_is_two_bits(self):
        r = information_preservation_check(np.full(4, 0.25), (0, 1, 2, 3))
        assert r.mutual_info == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(px_and_labels())
    def test_matches_entropy_oracle_on_random_joints(self, case):
        px, labels = case
        r = information_preservation_check(px, labels)
        assert r.mutual_info == pytest.approx(oracle_mi(px, labels), abs=1e-12)
        assert r.entropy_x == pytest.approx(oracle_entropy(px), abs=1e-12)
        assert r.info_loss >= -1e-12
        lossless = r.info_loss <= 1e-12
        assert r.injective == lossless
        assert r.conditional_certain == lossless

    def test_zero_entries_contribute_zero(self):
        # inputs of probability 0 change nothing, whatever their labels
        base = information_preservation_check([0.5, 0.5], (0, 1))
        padded = information_preservation_check([0.5, 0.0, 0.5, 0.0], (0, 0, 1, 5))
        assert padded == base


class TestInformationPreservation:
    def test_identity_preserves_everything(self):
        r = information_preservation_check(np.full(4, 0.25), (0, 1, 2, 3))
        assert r.injective
        assert r.entropy_x == pytest.approx(2.0, abs=1e-12)
        assert r.mutual_info == pytest.approx(2.0, abs=1e-12)
        assert r.info_loss == pytest.approx(0.0, abs=1e-12)
        assert r.conditional_certain

    def test_parity_loses_one_bit(self):
        r = information_preservation_check(np.full(4, 0.25), (0, 1, 0, 1))
        assert not r.injective
        assert r.mutual_info == pytest.approx(1.0, abs=1e-12)
        assert r.info_loss == pytest.approx(1.0, abs=1e-12)
        assert not r.conditional_certain

    def test_permutations_lossless_on_8_symbols(self):
        rng = np.random.default_rng(2)
        px = np.full(8, 0.125)
        for _ in range(10):
            r = information_preservation_check(px, rng.permutation(8))
            assert r.injective
            assert r.info_loss == pytest.approx(0.0, abs=1e-12)

    def test_injectivity_judged_on_support(self):
        # collides only outside the support, so no information is lost
        r = information_preservation_check([0.5, 0.5, 0.0, 0.0], (0, 1, 0, 1))
        assert r.injective
        assert r.info_loss == pytest.approx(0.0, abs=1e-12)
        assert r.conditional_certain
        # the same map on the whole domain collides
        assert not information_preservation_check(np.full(4, 0.25), (0, 1, 0, 1)).injective

    def test_exhaustive_small_domains(self):
        # every deterministic map on up to 4 symbols: MI = H(X) iff injective
        for n in (2, 3, 4):
            px = np.full(n, 1.0 / n)
            h = entropy(px)
            for labels in iter_all_maps(n, n):
                r = information_preservation_check(px, labels)
                assert r.mutual_info <= h + 1e-12
                if r.injective:
                    assert abs(r.mutual_info - h) <= 1e-12
                    assert r.conditional_certain
                else:
                    assert r.info_loss > 1e-12
                    assert not r.conditional_certain
        assert sum(1 for _ in iter_all_maps(3, 2)) == 2**3

    @settings(max_examples=100, deadline=None)
    @given(px_and_labels(), st.randoms(use_true_random=False))
    def test_bijection_on_outputs_preserves_mi(self, case, rnd):
        # discrete analogue of invariance under invertible output transforms
        px, labels = case
        values = sorted(set(labels))
        relabel = dict(zip(values, rnd.sample(range(-(2**40), 2**40), len(values))))
        base = information_preservation_check(px, labels)
        moved = information_preservation_check(px, [relabel[v] for v in labels])
        assert moved.mutual_info == pytest.approx(base.mutual_info, abs=1e-12)
        assert moved.injective == base.injective

    def test_peak_memory_linear_in_domain(self):
        # a dense 4,096 x 4,096 float64 joint table alone would be 128 MiB
        n = 4096
        px = np.full(n, 1.0 / n)
        labels = np.random.default_rng(4).permutation(n)
        tracemalloc.start()
        try:
            r = information_preservation_check(px, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.injective and r.info_loss == pytest.approx(0.0, abs=1e-12)
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestDiscreteJoint:
    def test_validates_sum(self):
        with pytest.raises(ValueError, match="probability"):
            information_preservation_check(np.full(4, 0.3), (0, 1, 2, 3))


class TestPushForward:
    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError, match="probability"):
            information_preservation_check(np.array([0.5, 0.6]), (0, 1))


class TestValidation:
    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="probability"):
            information_preservation_check([1.2, -0.2], (0, 1))

    def test_rejects_nan_and_non_vector_px(self):
        with pytest.raises(ValueError, match="probability"):
            information_preservation_check([np.nan, 1.0], (0, 1))
        with pytest.raises(ValueError, match="1-d"):
            information_preservation_check(np.full((2, 2), 0.25), np.zeros((2, 2), int))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            information_preservation_check(np.full(4, 0.25), (0, 1, 2))

    def test_rejects_non_integer_labels(self):
        with pytest.raises(ValueError, match="integers"):
            information_preservation_check(np.full(2, 0.5), (0.0, 1.0))
