import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanshare.params import (
    DistributionSpec,
    EvenInput,
    InvalidParam,
    NonIntegerNStar,
    ProblemParams,
    cost_for_n_star,
    double_factorial,
    erfcx,
    spawn_stream,
    validate_params,
)

from conftest import sample_dataset
from paper_forms import normal_central_moment


class TestValidateParams:
    def test_canonical(self):
        p = ProblemParams(1.0, 1 / 900, 9, 1)
        assert p.n_star == 10

    def test_small_m_branch(self):
        p = ProblemParams(1.0, 1 / 64, 4, 1)
        assert p.n_star == 2

    def test_non_integer_rejected(self):
        with pytest.raises(NonIntegerNStar):
            ProblemParams(1.0, 0.001, 9, 1)

    def test_infinite_n_star_rejected(self):
        # sigma sqrt(d) overflows to inf, which round() turns into a bare OverflowError
        with pytest.raises(NonIntegerNStar):
            ProblemParams(1e308, 1e-300, 9, 4)

    def test_zero_n_star_rejected(self):
        with pytest.raises(NonIntegerNStar):
            ProblemParams(1.0, 4.0, 4, 1)

    @pytest.mark.parametrize("bad", [
        (0.0, 1 / 900, 9),
        (-1.0, 1 / 900, 9),
        (1.0, 0.0, 9),
        (1.0, 1 / 900, 1),
        (1.0, 1 / 900, 9, 0),
        (math.inf, 1 / 900, 9),
        (1.0, math.inf, 9),
        # agent counts and dimensions must be integers
        (1.0, 1 / 300, 9.0, 3),
        (1.0, 1 / 300, 9.5, 3),
        (1.0, 1 / 300, "9", 3),
        (1.0, 1 / 300, 9, 3.0),
        (1.0, 1 / 900, 9, np.float64(1.0)),
    ])
    def test_invalid(self, bad):
        # each field is checked when the object is made
        with pytest.raises(InvalidParam):
            ProblemParams(*bad)

    def test_n_star_not_settable(self):
        # n* is derived from (sigma, c, m, d); a forged value would change alpha
        with pytest.raises(TypeError):
            ProblemParams(1.0, 1 / 900, 9, 1, n_star=3)

    def test_idempotent(self):
        p = ProblemParams(1.0, 1 / 900, 9, 1)
        # n_star is left out of ==, so compare it too
        assert validate_params(p) == p and validate_params(p).n_star == p.n_star == 10

    def test_highdim_n_star(self):
        p = ProblemParams(1.0, 1 / 300, 9, 3)
        assert p.n_star == 10
        assert p.cost / p.dim == pytest.approx(1 / 900)

    def test_n_star_derived_by_constructor(self):
        assert ProblemParams(1.0, 1 / 900, 9).n_star == 10

    def test_validate_returns_its_argument(self):
        p = ProblemParams(1.0, 1 / 900, 9)
        assert validate_params(p) is p

    def test_replace_derives_n_star_again(self):
        p = ProblemParams(1.0, 1 / 900, 9)
        assert replace(p, cost=3 / 900, dim=3).n_star == 10
        with pytest.raises(NonIntegerNStar):
            replace(p, dim=3)  # n* = 10 sqrt(3)

    def test_numpy_integers_accepted(self):
        p = ProblemParams(1.0, 1 / 300, np.int64(9), np.int32(3))
        assert p == ProblemParams(1.0, 1 / 300, 9, 3) and p.n_star == 10
        assert type(p.agents) is int and type(p.dim) is int


class TestDoubleFactorial:
    @pytest.mark.parametrize("k,expect", [(-1, 1), (1, 1), (3, 3), (5, 15), (9, 945)])
    def test_values(self, k, expect):
        assert double_factorial(k) == expect

    @pytest.mark.parametrize("k", [0, 2, 6, -3])
    def test_even_rejected(self, k):
        with pytest.raises(EvenInput):
            double_factorial(k)

    @given(st.integers(min_value=1, max_value=19).filter(lambda k: k % 2 == 1))
    def test_factorial_identity(self, k):
        # k!! (k-1)!! = k!  with (k-1) even handled through (k-1)!! = (k-1)!/( (k-2)!! ...)
        # use the even-case product directly
        even = 1
        j = k - 1
        while j > 1:
            even *= j
            j -= 2
        assert double_factorial(k) * even == math.factorial(k)


class TestNormalCentralMoment:
    def test_odd_zero(self):
        assert normal_central_moment(3, 7.0) == 0.0

    def test_examples(self):
        assert normal_central_moment(2, 2.0) == 4.0
        assert normal_central_moment(4, 2.0) == 48.0

    def test_monte_carlo_agreement(self):
        z = spawn_stream(42, 0).standard_normal(1_000_000)
        for sigma in (0.5, 1.0, 3.0):
            x = sigma * z
            for p in (2, 4, 6):
                draws = x**p
                mean, se = draws.mean(), draws.std() / math.sqrt(len(draws))
                assert abs(mean - normal_central_moment(p, sigma)) < 5 * se

    @given(st.integers(min_value=0, max_value=10), st.floats(0.1, 5.0))
    def test_scaling(self, p, sigma):
        base = normal_central_moment(p, 1.0)
        assert normal_central_moment(p, sigma) == pytest.approx(sigma**p * base)


class TestSampleDataset:
    def test_empty(self, gaussian_1d):
        ds = sample_dataset(gaussian_1d, 0, spawn_stream(0, 1))
        assert ds.shape == (0, 1)

    def test_law_of_large_numbers(self, gaussian_1d):
        n = 1_000_000
        ds = sample_dataset(gaussian_1d, n, spawn_stream(1, 2))
        assert abs(ds.mean()) < 4.0 / math.sqrt(n)

    def test_reproducible(self, gaussian_1d):
        a = sample_dataset(gaussian_1d, 100, spawn_stream(5, 1, 2))
        b = sample_dataset(gaussian_1d, 100, spawn_stream(5, 1, 2))
        assert np.array_equal(a, b)

    def test_streams_independent(self, gaussian_1d):
        a = sample_dataset(gaussian_1d, 100, spawn_stream(5, 1, 2))
        b = sample_dataset(gaussian_1d, 100, spawn_stream(5, 1, 3))
        assert not np.array_equal(a, b)

    def test_uniform_variance_cap(self):
        # half-width sqrt(3) sigma has per-dim variance exactly sigma^2: allowed
        DistributionSpec("uniform_box", np.zeros(2), math.sqrt(3.0), 1.0)
        with pytest.raises(InvalidParam):
            DistributionSpec("uniform_box", np.zeros(2), 2.0, 1.0)

    @pytest.mark.parametrize("mean,scale", [
        (np.zeros(1), math.nan),
        (np.zeros(1), -1.0),
        (np.zeros((2, 1)), 1.0),
        (np.array([0.0, math.nan]), 1.0),
    ], ids=["nan scale", "negative scale", "2-D mean", "nan mean"])
    def test_bad_spec_rejected(self, mean, scale):
        # a NaN scale passes both variance comparisons, so it is named here
        with pytest.raises(InvalidParam):
            DistributionSpec("gaussian", mean, scale, 1.0)

    def test_uniform_variance_value(self):
        spec = DistributionSpec("uniform_box", np.zeros(1), math.sqrt(3.0), 1.0)
        ds = sample_dataset(spec, 200_000, spawn_stream(9, 0))
        assert ds.var() == pytest.approx(1.0, rel=0.02)

    def test_rademacher(self):
        spec = DistributionSpec("scaled_rademacher", np.ones(2), 0.5, 1.0)
        ds = sample_dataset(spec, 1000, spawn_stream(9, 1))
        assert set(np.unique(ds)) == {0.5, 1.5}

    @settings(max_examples=20)
    @given(st.integers(0, 50), st.integers(0, 2**32 - 1))
    def test_shape(self, n, seed):
        spec = DistributionSpec("gaussian", np.zeros(3), 1.0, 1.0)
        assert sample_dataset(spec, n, spawn_stream(seed, 0)).shape == (n, 3)


class TestSampleSums:
    FAMILIES = [
        ("gaussian", 0.7),
        ("scaled_rademacher", 0.7),
        ("uniform_box", 0.7 * math.sqrt(3.0)),
    ]

    @pytest.mark.parametrize("family,scale", FAMILIES)
    def test_moments(self, family, scale):
        b, shift = 200_000, 1.5
        spec = DistributionSpec(family, np.array([0.5, -1.0]) + shift, scale, 0.49)
        stream = spawn_stream(3, 0)
        for k in (1, 7, 40):
            s = spec.sample_sum(stream, b, k)
            assert s.shape == (b, 2)
            mean_se = s.std(axis=0) / math.sqrt(b)
            assert np.all(np.abs(s.mean(axis=0) - k * spec.mean) < 5 * mean_se)
            dev_sq = (s - s.mean(axis=0)) ** 2
            var_se = dev_sq.std(axis=0) / math.sqrt(b)
            assert np.all(np.abs(s.var(axis=0) - k * spec.per_dim_variance) < 5 * var_se)

    @pytest.mark.parametrize("k", [1, 2, 9, 990])
    def test_rademacher_lattice(self, k):
        spec = DistributionSpec("scaled_rademacher", np.array([0.25 + 2.0]), 0.5, 1.0)
        s = spec.sample_sum(spawn_stream(4, k), 5_000, k)
        steps = (s - k * 2.25) / 0.5 + k  # twice the number of +1 points
        assert steps.min() >= 0 and steps.max() <= 2 * k
        assert np.all(steps % 2 == 0)

    @pytest.mark.parametrize("family,scale", FAMILIES)
    def test_zero_size_blocks_draw_nothing(self, family, scale):
        spec = DistributionSpec(family, np.ones(3) + 3.0, scale, 0.49)
        stream = spawn_stream(5, 0)
        before = stream.bit_generator.state
        z = spec.sample_sum(stream, 8, 0)
        assert np.array_equal(z, np.zeros((8, 3)))
        assert stream.bit_generator.state == before

    @pytest.mark.parametrize("seed", [1 << 22, 10_000, 1])
    def test_uniform_slices_match_one_draw(self, seed):
        # the (b, dim) slices of standard uniforms are drawn in sequence from
        # one generator and added in order, so the sums equal those of one
        # (k, b, dim) draw summed over its first axis and put through the
        # same affine map, bit for bit
        spec = DistributionSpec("uniform_box", np.array([0.5, -1.0, 2.0]) + 1.5, 1.5, 0.75)
        loc = spec.mean
        for b, k in ((1, 7), (333, 40), (4_000, 200), (500, 1)):
            got = spec.sample_sum(spawn_stream(seed, b), b, k)
            want = spawn_stream(seed, b).random((k, b, 3)).sum(axis=0)
            want *= 2.0 * spec.scale
            want += k * (loc - spec.scale)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 40])
    def test_uniform_sums_within_support(self, k):
        spec = DistributionSpec("uniform_box", np.array([0.5, -1.0]) + 2.0, 1.5, 0.75)
        loc, s = spec.mean, spec.scale
        sums = spec.sample_sum(spawn_stream(8, k), 100_000, k)
        assert np.all(sums >= k * (loc - s)) and np.all(sums <= k * (loc + s))

    @pytest.mark.parametrize("k", [1, 2])
    def test_uniform_sums_irwin_hall_kurtosis(self, k):
        # a sum of k uniforms is Irwin-Hall, with excess kurtosis -6/(5k); a
        # Gaussian stand-in with the right mean and variance has 0
        spec = DistributionSpec("uniform_box", np.array([0.5, -1.0]) + 2.0, 1.5, 0.75)
        z = spec.sample_sum(spawn_stream(9, k), 200_000, k)
        z = (z - z.mean(axis=0)) / z.std(axis=0)
        kurt = (z**4).mean(axis=0)
        # delta-method standard error of m4 / m2^2 for a symmetric law
        se = (z**4 - 2 * kurt * z**2).std(axis=0) / math.sqrt(len(z))
        assert np.all(np.abs(kurt - 3 + 6 / (5 * k)) < 5 * se)


class TestCostForNStar:
    @pytest.mark.parametrize("m,n_star,dim", [(9, 10, 1), (4, 10, 1), (100, 7, 3), (2, 1, 2)])
    def test_inverts_n_star(self, m, n_star, dim):
        p = ProblemParams(1.5, cost_for_n_star(1.5, n_star, m, dim), m, dim)
        assert p.n_star == n_star

    @pytest.mark.parametrize("agents,n_star,dim", [(1, 10, 1), (0, 10, 1), (9, 0, 1), (9, 10, 0)])
    def test_out_of_range_rejected(self, agents, n_star, dim):
        with pytest.raises(InvalidParam):
            cost_for_n_star(1.0, n_star, agents, dim)

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_cost_outside_float_range_rejected(self, sigma):
        # sigma**2 overflows (1e200) or underflows to 0 (1e-200)
        with pytest.raises(InvalidParam, match="cost"):
            cost_for_n_star(sigma, 10, 9, 1)


# z over [0, 1e4]: dense below the switch to the continued fraction at 8,
# geometric above it, and the floats on both sides of 8
ERFCX_GRID = np.unique(np.concatenate([
    np.linspace(0.0, 8.0, 801),
    np.geomspace(8.0, 1e4, 401),
    [np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0)],
]))


class TestErfcx:
    def test_matches_mpmath(self):
        with mpmath.workdps(40):
            worst = 0.0
            for z in ERFCX_GRID.tolist():
                x = mpmath.mpf(z)  # exact: the float itself
                ref = mpmath.exp(x * x) * mpmath.erfc(x)
                worst = max(worst, float(abs(erfcx(z) - ref) / ref))
        assert worst <= 1e-14

    def test_limits(self):
        assert erfcx(0.0) == 1.0
        assert erfcx(math.inf) == 0.0
