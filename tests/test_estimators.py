import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanshare import estimators as est
from meanshare.mechanisms import Allocation
from meanshare.params import spawn_stream

from conftest import as_dataset


def alloc(clean=(), corrupted=(), eta_sq=0.0, d=1):
    return Allocation(
        clean=as_dataset(list(clean), d) if len(clean) else np.empty((0, d)),
        corrupted=as_dataset(list(corrupted), d) if len(corrupted) else np.empty((0, d)),
        eta_sq=np.full(d, eta_sq, float),
    )


class TestApplySubmission:
    def test_identity(self, canonical):
        X = as_dataset([1.0, 2.0, 3.0])
        assert np.array_equal(est.apply_submission(est.Identity(), X, canonical), X)

    def test_scale(self, canonical):
        X = as_dataset([2.0, 4.0])
        Y = est.apply_submission(est.Scale(0.5), X, canonical)
        assert np.array_equal(Y, as_dataset([1.0, 2.0]))

    def test_shift(self, canonical):
        X = as_dataset([1.0, 2.0])
        assert np.array_equal(est.apply_submission(est.Shift(3.0), X, canonical),
                              as_dataset([4.0, 5.0]))

    def test_constant(self, canonical):
        X = as_dataset([1.0, 2.0, 3.0])
        Y = est.apply_submission(est.SubmitConstant(7.0), X, canonical)
        assert np.array_equal(Y, as_dataset([7.0, 7.0, 7.0]))

    def test_subset_prefix(self, canonical):
        X = as_dataset([1.0, 2.0, 3.0])
        assert np.array_equal(est.apply_submission(est.Subset(2), X, canonical), X[:2])

    def test_subset_too_large(self, canonical):
        with pytest.raises(est.SubsetTooLarge):
            est.apply_submission(est.Subset(4), as_dataset([1.0, 2.0]), canonical)

    def test_empty(self, canonical):
        Y = est.apply_submission(est.Empty(), as_dataset([1.0]), canonical)
        assert Y.shape == (0, 1)

    def test_fabricate(self, canonical):
        X = as_dataset([0.0, 2.0])
        Y = est.apply_submission(est.FabricateFitGaussian(50), X, canonical,
                                 spawn_stream(3, 0))
        assert Y.shape == (50, 1)
        # fitted Gaussian has mean 1, sd 1
        assert abs(Y.mean() - 1.0) < 1.0

    def test_shrink_limit(self, canonical):
        X = as_dataset([1.0, 2.0, 3.0])
        Y = est.apply_submission(est.ShrinkEll(1e9), X, canonical)
        assert np.allclose(Y, X, rtol=1e-12)
        # the factor 1 / (1 + sigma^2 / (n ell^2)) at n = 3, ell = 2
        Y2 = est.apply_submission(est.ShrinkEll(2.0), X, canonical)
        assert np.allclose(Y2, X / (1 + canonical.sigma**2 / 12), rtol=1e-12)


DETERMINISTIC_RULES = [est.Identity(), est.Scale(0.5), est.Shift(3.0), est.SubmitConstant(7.0),
                       est.Subset(2), est.Empty(), est.ShrinkEll(2.0)]


class TestBatchedSubmission:
    @pytest.mark.parametrize("rule", DETERMINISTIC_RULES, ids=repr)
    def test_matches_per_row(self, canonical, rule):
        X = spawn_stream(5, 0).standard_normal((4, 3, 2))
        Y = est.apply_submission(rule, X, canonical)
        rows = [est.apply_submission(rule, x, canonical) for x in X]
        assert Y.shape == (4, *rows[0].shape)
        for y, r in zip(Y, rows):
            assert np.array_equal(y, r)

    def test_subset_too_large(self, canonical):
        with pytest.raises(est.SubsetTooLarge):
            est.apply_submission(est.Subset(4), np.zeros((5, 3, 1)), canonical)

    def test_fabricate_from_nothing(self, canonical):
        with pytest.raises(est.EmptyInput):
            est.apply_submission(est.FabricateFitGaussian(3), np.zeros((5, 0, 1)), canonical,
                                 spawn_stream(3, 0))


BLOCK_SUM_RULES = st.one_of(
    st.just(est.Identity()), st.just(est.Empty()),
    st.builds(est.Scale, st.floats(-3.0, 3.0)),
    st.builds(est.Shift, st.floats(-3.0, 3.0)),
    st.builds(est.SubmitConstant, st.floats(-3.0, 3.0)),
    st.builds(est.Subset, st.integers(0, 9)),
    st.builds(est.ShrinkEll, st.floats(0.1, 10.0)),
)


class TestSubmittedSum:
    # the engine's block-sum form of every rule but fabrication must give
    # what the object-level rule gives, read through sums
    @settings(max_examples=300, deadline=None)
    @given(rule=BLOCK_SUM_RULES, b=st.integers(1, 4), n=st.integers(0, 8), d=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_apply_submission(self, canonical, rule, b, n, d, seed):
        X = 5.0 * spawn_stream(seed, 0).standard_normal((b, n, d)) + 2.0
        read = []

        def block_sum(k):
            lo = sum(read)
            read.append(k)
            return X[:, lo:lo + k].sum(axis=1)

        if isinstance(rule, est.Subset) and rule.k > n:
            for f in (lambda: est.apply_submission(rule, X, canonical),
                      lambda: est._submitted_sum(rule, n, canonical, block_sum)):
                with pytest.raises(est.SubsetTooLarge):
                    f()
            return
        Y = est.apply_submission(rule, X, canonical)
        sum_x, sum_y, n_y = est._submitted_sum(rule, n, canonical, block_sum)
        assert sum(read) == n
        assert n_y == Y.shape[1]
        for got, want, pts in ((sum_x, X.sum(axis=1), X), (sum_y, Y.sum(axis=1), Y)):
            assert got.shape == (b, d)
            # relative to the points' magnitudes, which a cancelling sum can fall far below
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * (np.abs(pts).sum() + 1.0))

    def test_fabrication_has_no_block_sum_form(self, canonical):
        with pytest.raises(TypeError):
            est._submitted_sum(est.FabricateFitGaussian(3), 2, canonical, lambda k: np.zeros((1, 1)))


class TestEstimate:
    def test_hand_oracle(self):
        # X={0,2}, D={4}, D'={10}, eta^2 = sigma^2 = 1:
        # (6/1 + 10/2) / (3/1 + 1/2) = 22/7
        a = alloc(clean=[4.0], corrupted=[10.0], eta_sq=1.0)
        v = est.estimate(est.RecommendedWeighted(), as_dataset([0.0, 2.0]), a, 1.0)
        assert v[0] == pytest.approx(22 / 7, rel=1e-14)

    def test_zero_eta_equals_plain_mean(self):
        X = as_dataset([0.0, 2.0])
        a = alloc(clean=[4.0], corrupted=[10.0], eta_sq=0.0)
        w = est.estimate(est.RecommendedWeighted(), X, a, 1.0)
        m = est.estimate(est.PlainMeanAll(), X, a, 1.0)
        assert w[0] == pytest.approx(m[0], rel=1e-14)
        assert m[0] == pytest.approx(4.0)

    def test_no_corrupted_reduces_to_sample_mean(self):
        X = as_dataset([0.0, 2.0])
        a = alloc(clean=[4.0])
        v = est.estimate(est.RecommendedWeighted(), X, a, 1.0)
        assert v[0] == pytest.approx(2.0, rel=1e-14)

    def test_infinite_eta_ignores_corrupted(self):
        X = as_dataset([0.0, 2.0])
        a = alloc(clean=[4.0], corrupted=[np.inf], eta_sq=np.inf)
        v = est.estimate(est.RecommendedWeighted(), X, a, 1.0)
        assert v[0] == pytest.approx(2.0, rel=1e-14)

    def test_posterior_mean_limit(self):
        X = as_dataset([0.0, 2.0])
        a = alloc(clean=[4.0], corrupted=[10.0], eta_sq=1.0)
        rec = est.estimate(est.RecommendedWeighted(), X, a, 1.0)
        post = est.estimate(est.PosteriorMean(1e8), X, a, 1.0)
        assert post[0] == pytest.approx(rec[0], rel=1e-10)
        # finite prior shrinks toward zero
        tight = est.estimate(est.PosteriorMean(0.01), X, a, 1.0)
        assert abs(tight[0]) < abs(rec[0])

    def test_fixed_weighted(self):
        X = as_dataset([0.0, 2.0])
        a = alloc(clean=[4.0], corrupted=[10.0], eta_sq=99.0)
        v = est.estimate(est.FixedWeighted(1.0), X, a, 1.0)
        assert v[0] == pytest.approx(22 / 7, rel=1e-14)

    def test_clean_only_and_own_only(self):
        X = as_dataset([0.0, 2.0])
        a = alloc(clean=[4.0], corrupted=[100.0], eta_sq=1.0)
        assert est.estimate(est.CleanOnlyMean(), X, a, 1.0)[0] == 2.0
        # with no clean allocation, the clean-only mean reads the own data only
        assert est.estimate(est.CleanOnlyMean(), X, alloc(corrupted=[100.0], eta_sq=1.0),
                            1.0)[0] == 1.0

    def test_empty_input_rejected(self):
        a = alloc()
        with pytest.raises(est.EmptyInput):
            est.estimate(est.PlainMeanAll(), np.empty((0, 1)), a, 1.0)
        with pytest.raises(est.EmptyInput):
            est.estimate(est.RecommendedWeighted(), np.empty((0, 1)), a, 1.0)

    @pytest.mark.parametrize("choice,a", [
        (est.RecommendedWeighted(), alloc(corrupted=[1.0], eta_sq=np.inf)),
        (est.FixedWeighted(np.inf), alloc(corrupted=[1.0])),
        (est.CleanOnlyMean(), alloc(corrupted=[1.0])),
    ], ids=["recommended-inf-eta", "fixed-inf-tau", "clean-only"])
    def test_no_data_with_positive_weight(self, choice, a):
        with pytest.raises(est.EmptyInput):
            est.estimate(choice, np.empty((0, 1)), a, 1.0)

    @pytest.mark.parametrize("X,a", [
        (np.ones((5, 1)), Allocation(np.empty((0, 3)), np.ones((4, 3)), np.zeros(3))),
        (np.ones((5, 1)), Allocation(np.ones((4, 3)), np.empty((0, 3)), np.zeros(3))),
        (np.empty((0, 1)), Allocation(np.ones((4, 1)), np.ones((4, 3)), np.zeros(3))),
        (np.ones((5, 2)), Allocation(np.ones((2, 2)), np.empty((0, 2)), np.zeros(3))),
    ], ids=["own-vs-corrupted", "own-vs-clean", "clean-vs-corrupted", "eta-sq"])
    def test_dimension_mismatch(self, X, a):
        # the corrupted block and eta^2 used to go unchecked: the first case
        # returned [1. 1. 1.]
        with pytest.raises(est.DimensionMismatch):
            est.estimate(est.PlainMeanAll(), X, a, 1.0)

    def test_plain_mean_single_dataset(self):
        X = as_dataset([1.0, 2.0, 6.0])
        v = est.estimate(est.PlainMeanAll(), X, alloc(), 1.0)
        assert v[0] == X.mean()


choices = st.sampled_from([
    est.PlainMeanAll(),
    est.RecommendedWeighted(),
    est.FixedWeighted(0.7),
    est.CleanOnlyMean(),
    est.PosteriorMean(1e7),
])


class TestEquivariance:
    @settings(max_examples=50, deadline=None)
    @given(choices, st.floats(-50, 50), st.integers(0, 2**31 - 1))
    def test_location(self, choice, t, seed):
        rng = spawn_stream(seed, 0)
        X = as_dataset(rng.standard_normal(4))
        a = alloc(clean=rng.standard_normal(3), corrupted=rng.standard_normal(5),
                  eta_sq=float(rng.uniform(0, 4)))
        base = est.estimate(choice, X, a, 1.0)
        shifted = Allocation(a.clean + t, a.corrupted + t, a.eta_sq)
        moved = est.estimate(choice, X + t, shifted, 1.0)
        extra = 0.0
        if isinstance(choice, est.PosteriorMean):
            # the prior precision is negligible at ell=1e7 but not exactly zero
            extra = 1e-5
        assert moved[0] == pytest.approx(base[0] + t, abs=1e-9 + extra)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 10), st.integers(0, 2**31 - 1))
    def test_scale(self, s, seed):
        rng = spawn_stream(seed, 1)
        X = as_dataset(rng.standard_normal(4))
        a = alloc(clean=rng.standard_normal(3), corrupted=rng.standard_normal(5),
                  eta_sq=float(rng.uniform(0, 4)))
        base = est.estimate(est.RecommendedWeighted(), X, a, 1.0)
        scaled_alloc = Allocation(a.clean * s, a.corrupted * s, a.eta_sq * s * s)
        scaled = est.estimate(est.RecommendedWeighted(), X * s, scaled_alloc, s)
        assert scaled[0] == pytest.approx(s * base[0], rel=1e-9)

    def test_weight_monotonicity(self):
        X = as_dataset([0.0])
        clean_mean = 0.0
        prev = None
        for eta in (0.0, 0.5, 2.0, 10.0, 1e6):
            a = alloc(clean=[0.0], corrupted=[10.0], eta_sq=eta)
            v = est.estimate(est.RecommendedWeighted(), X, a, 1.0)[0]
            if prev is not None:
                assert v < prev
            prev = v
        assert prev == pytest.approx(clean_mean, abs=1e-4)
