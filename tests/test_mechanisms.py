import math

import mpmath
import numpy as np
import pytest

from conftest import as_dataset, params_for
from meanshare import estimators as est
from meanshare import mechanisms as mech
from meanshare.alphasolve import solve_alpha
from meanshare.params import InvalidParam, ProblemParams, double_factorial, spawn_stream


def _round(mechanism, subs, *args):
    """Serve every agent of a round in index order; a stream in ``args`` is
    shared, so each agent draws after the ones before it."""
    return [mechanism(subs, i, *args) for i in range(len(subs))]


class TestPool:
    def test_union_of_others(self):
        subs = [as_dataset([1.0]), as_dataset([2.0]), as_dataset([3.0])]
        out = _round(mech.mech_pool, subs)
        assert sorted(out[0].ravel()) == [2.0, 3.0]
        assert sorted(out[1].ravel()) == [1.0, 3.0]

    def test_all_empty(self):
        subs = [np.empty((0, 1))] * 3
        out = _round(mech.mech_pool, subs)
        assert all(len(a) == 0 for a in out)


class TestSizeCheck:
    def test_below_threshold_gets_nothing(self, canonical):
        subs = [as_dataset(np.arange(9.0))] + [as_dataset(np.ones(10))] * 8
        out = _round(mech.mech_size_check, subs, canonical)
        assert len(out[0]) == 0

    def test_at_threshold_gets_union(self, canonical):
        subs = [as_dataset(np.arange(10.0))] + [as_dataset(np.ones(10))] * 8
        out = _round(mech.mech_size_check, subs, canonical)
        assert len(out[0]) == 80

    def test_all_recommended(self, canonical):
        subs = [as_dataset(np.ones(10))] * 9
        out = _round(mech.mech_size_check, subs, canonical)
        assert all(len(a) == 8 * 10 for a in out)

    def test_params_from_constructor(self, canonical):
        # n* is derived when the params are made, so params that skip
        # validate_params gate on n* = 10 too
        subs = [as_dataset(np.arange(3.0))] + [as_dataset(np.ones(10))] * 8
        for p in (ProblemParams(1.0, 1.0 / 900.0, 9, 1), canonical):
            assert len(mech.mech_size_check(subs, 0, p)) == 0
            assert len(mech.mech_size_check(subs[1:] + subs[:1], 0, p)) == 7 * 10 + 3

    def test_permutation_covariance(self, canonical):
        rng = spawn_stream(0, 7)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        out = _round(mech.mech_size_check, subs, canonical)
        perm = [3, 0, 1, 2, 4, 5, 6, 7, 8]
        out_p = _round(mech.mech_size_check, [subs[i] for i in perm], canonical)
        for slot, src in enumerate(perm):
            assert sorted(out_p[slot].ravel()) == pytest.approx(sorted(out[src].ravel()))


class TestCorruptDeploy:
    @pytest.mark.parametrize("eps,k", [(0.5, 1), (0.25, 2), (0.1, 5), (0.05, 10)])
    def test_k_eps(self, eps, k):
        assert mech.k_eps(eps) == k

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_k_eps_rejects_non_finite(self, eps):
        # an infinite epsilon used to give k = 0, and a division by zero
        # in beta_sq_published
        with pytest.raises(ValueError, match="epsilon"):
            mech.k_eps(eps)

    def test_k_eps_rejects_epsilon_whose_reciprocal_overflows(self):
        # 1/(2 epsilon) is +inf there; math.ceil used to raise OverflowError
        with pytest.raises(InvalidParam, match="epsilon"):
            mech.k_eps(1e-310)

    @pytest.mark.parametrize("m,k_max", [(9, 149), (100, 102), (1000, 68)])
    def test_beta_sq_beyond_the_float_range_rejected(self, m, k_max):
        # from k_max + 1 on a factor of beta^2's formula overflows, which used
        # to escape as an OverflowError
        p = params_for(m)
        assert 0 < mech.beta_sq_published(m * p.n_star, p, k_max) < math.inf
        with pytest.raises(InvalidParam, match="epsilon"):
            mech.beta_sq_published(m * p.n_star, p, k_max + 1)

    def test_beta_sq_of_a_huge_k_is_decided_without_the_double_factorial(self, canonical,
                                                                        monkeypatch):
        # k (2k-1)!! alone exceeds the float range from k = 150 on
        monkeypatch.setattr(mech, "double_factorial",
                            lambda k: pytest.fail("the double factorial was built"))
        for k in (150, 10**6):
            with pytest.raises(InvalidParam, match="epsilon"):
                mech.beta_sq_published(90, canonical, k)

    @pytest.mark.parametrize("k", [1, 5, 50, 148])
    def test_corruption_variance_matches_mpmath(self, k):
        # beta^2 delta^{2k} at the canonical beta^2, for discrepancies whose
        # true value spans [1e-290, 1e300]; delta^{2k} alone leaves the float
        # range long before that at k = 148 (beta^2 is about 5e-164 there)
        beta_sq = mech.beta_sq_published(90, params_for(9), k)
        logs = np.linspace(-289.9, 299.9, 60)
        delta = 10.0 ** ((logs - math.log10(beta_sq)) / (2 * k))
        delta[::2] *= -1
        got = mech.corruption_variance(beta_sq, delta, k)
        with mpmath.workdps(40):
            want = [mpmath.mpf(beta_sq) * mpmath.mpf(x) ** (2 * k) for x in delta]
        for g, w in zip(got, want):
            assert 1e-290 <= w <= 1e300
            assert abs(g - w) <= 1e-13 * w

    def test_corruption_variance_finite_where_the_power_overflows(self):
        # at k = 148, delta^{2k} overflows from |delta| > 11, while beta^2
        # delta^{2k} stays finite up to |delta| of about 39
        beta_sq = mech.beta_sq_published(90, params_for(9), 148)
        got = mech.corruption_variance(beta_sq, np.array([12.0, -25.0, 38.0]), 148)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, [1.32e156, 2.98e250, 2.00e304], rtol=0.01)
        # beyond the float range it is +inf, and numpy warns
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert mech.corruption_variance(beta_sq, np.array([40.0]), 148)[0] == math.inf

    def test_corruption_variance_at_k1_is_the_plain_product(self):
        delta = spawn_stream(4, 0).standard_normal(1000) * 30
        for scale in (13.2, 0.37, 1e-5):
            assert mech.corruption_variance(scale, delta, 1).tobytes() == \
                (scale * delta**2).tobytes()

    def test_zero_discrepancy_is_plain_pool(self, canonical):
        subs = [as_dataset(np.full(10, 5.0))] * 9
        out = _round(mech.mech_corrupt_deploy, subs, canonical, 0.5, spawn_stream(1, 0))
        for dep in out:
            assert dep.eta_sq[0] == 0.0
            assert dep.value[0] == pytest.approx(5.0)

    def test_beta_forms_agree(self, canonical):
        # the published form and the paper's per-agent rewrite
        # n*^{k-2} (m-1)^{k-1} (own + (m-1) n*)^2 / (k (2k-1)!! m^{k+1} sigma^{2k-2})
        # coincide whenever the other agents submit n* points each, for any
        # own size and any k
        m, ns, sigma = canonical.agents, canonical.n_star, canonical.sigma
        for k in (1, 2, 5):
            for own in (1, ns, 3 * ns):
                total = own + (m - 1) * ns
                rewrite = (ns ** (k - 2) * (m - 1) ** (k - 1) * (own + (m - 1) * ns) ** 2
                           / (k * double_factorial(2 * k - 1) * m ** (k + 1) * sigma ** (2 * k - 2)))
                assert mech.beta_sq_published(total, canonical, k) == pytest.approx(rewrite, rel=1e-12)

    def test_empty_rejected(self, canonical):
        subs = [np.empty((0, 1))] + [as_dataset(np.ones(10))] * 8
        with pytest.raises(mech.EmptySubmission):
            _round(mech.mech_corrupt_deploy, subs, canonical, 0.5, spawn_stream(1, 1))

    def test_deploy_is_mean_of_own_and_corrupted(self, canonical):
        rng = spawn_stream(2, 0)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        dep = _round(mech.mech_corrupt_deploy, subs, canonical, 0.5, spawn_stream(2, 1))[0]
        expect = np.concatenate([subs[0], dep.corrupted]).mean()
        assert dep.value[0] == pytest.approx(expect, rel=1e-12)


class TestCrossCheckCorrupt:
    def test_small_m_pools(self):
        p = ProblemParams(1.0, 1 / 64, 4, 1)
        subs = [as_dataset([float(i)] * 2) for i in range(4)]
        out = _round(mech.mech_cross_check_corrupt, subs, p, None, spawn_stream(3, 100))
        assert len(out[0].clean) == 6
        assert len(out[0].corrupted) == 0
        assert out[0].eta_sq[0] == 0.0

    def test_eta_formula(self, canonical):
        # construct submissions so that mean(Y_0)=2 and every cross-check
        # point equals 1, giving eta^2 = alpha^2 (2-1)^2 = 16 for alpha=4
        subs = [as_dataset(np.full(10, 2.0))] + [as_dataset(np.ones(10))] * 8
        out = _round(mech.mech_cross_check_corrupt, subs, canonical, 4.0, spawn_stream(4, 100))
        assert out[0].eta_sq[0] == pytest.approx(16.0)

    def test_equilibrium_sizes(self, canonical):
        rng = spawn_stream(5, 0)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        out = _round(mech.mech_cross_check_corrupt, subs, canonical, 5.4, spawn_stream(5, 100))
        for a in out:
            assert len(a.clean) == 10
            assert len(a.corrupted) == 70

    def test_params_from_constructor(self, canonical):
        # params that skip validate_params hold out n* = 10 clean points too
        rng = spawn_stream(5, 0)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        a, b = (mech.mech_cross_check_corrupt(subs, 0, p, 5.4, spawn_stream(5, 100))
                for p in (ProblemParams(1.0, 1.0 / 900.0, 9, 1), canonical))
        assert len(a.clean) == 10 and len(a.corrupted) == 70 and a.eta_sq[0] > 0
        for x, y in ((a.clean, b.clean), (a.corrupted, b.corrupted), (a.eta_sq, b.eta_sq)):
            assert np.array_equal(x, y)

    def test_partition_recovers_pool(self, canonical):
        rng = spawn_stream(6, 0)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        a = _round(mech.mech_cross_check_corrupt, subs, canonical, 5.4, spawn_stream(6, 100))[0]
        # replay agent 0's draws from the mechanism stream: the cross-check
        # permutation, then the noise on the remainder
        replay = spawn_stream(6, 100)
        replay.permutation(80)
        noise = replay.standard_normal(a.corrupted.shape) * np.sqrt(a.eta_sq)
        sources = np.concatenate([a.clean, a.corrupted - noise])
        pool = np.concatenate(subs[1:])
        assert sorted(sources.ravel()) == pytest.approx(sorted(pool.ravel()), rel=1e-12)

    def test_shift_covariance(self, canonical):
        rng = spawn_stream(7, 0)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        t = 13.25
        a0 = _round(mech.mech_cross_check_corrupt, subs, canonical, 5.4, spawn_stream(8, 100))[0]
        a1 = _round(mech.mech_cross_check_corrupt, [s + t for s in subs], canonical, 5.4,
                    spawn_stream(8, 100))[0]
        assert a1.eta_sq[0] == pytest.approx(a0.eta_sq[0], rel=1e-9, abs=1e-12)
        assert np.allclose(a1.clean, a0.clean + t)
        assert np.allclose(a1.corrupted, a0.corrupted + t, rtol=1e-9, atol=1e-9)

    def test_empty_submission_sentinel(self, canonical):
        subs = [np.empty((0, 1))] + [as_dataset(np.ones(10))] * 8
        a = _round(mech.mech_cross_check_corrupt, subs, canonical, 5.4, spawn_stream(9, 100))[0]
        assert np.isinf(a.eta_sq[0])

    def test_missing_alpha_rejected(self, canonical):
        subs = [as_dataset(np.ones(10))] * 9
        with pytest.raises(ValueError):
            _round(mech.mech_cross_check_corrupt, subs, canonical, None, spawn_stream(10, 100))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_alpha_outside_range_rejected(self, canonical, alpha):
        # NaN used to give eta^2 = NaN, and an estimate of NaN downstream
        subs = [as_dataset(np.arange(10.0) + j) for j in range(9)]
        with pytest.raises(InvalidParam, match="alpha"):
            mech.mech_cross_check_corrupt(subs, 0, canonical, alpha, spawn_stream(10, 100))

    @pytest.mark.parametrize("alpha", [1e200, 2.0**510, 0.0, -1.0],
                             ids=["1e200", "2**510", "0", "-1"])
    def test_alpha_beyond_the_domain_rejected(self, canonical, alpha):
        # from about 1.3e154 on, alpha**2 used to overflow into a bare
        # OverflowError; the mechanism shares the package's (0, 2**510)
        subs = [as_dataset(np.arange(10.0) + j) for j in range(9)]
        with pytest.raises(InvalidParam, match="alpha"):
            mech.mech_cross_check_corrupt(subs, 0, canonical, alpha, spawn_stream(10, 100))

    def test_largest_alpha_runs(self, canonical):
        subs = [as_dataset(np.arange(10.0) + j) for j in range(9)]
        a = mech.mech_cross_check_corrupt(subs, 0, canonical, 1e150, spawn_stream(10, 100))
        assert np.all(np.isfinite(a.eta_sq)) and np.all(np.isfinite(a.corrupted))

    def test_highdim_elementwise(self):
        p = ProblemParams(1.0, 1 / 300, 9, 3)
        rng = spawn_stream(11, 0)
        subs = [rng.standard_normal((10, 3)) for _ in range(9)]
        a = _round(mech.mech_cross_check_corrupt, subs, p, 5.4, spawn_stream(11, 100))[0]
        assert a.eta_sq.shape == (3,)
        assert len(a.clean) == 10  # min(80, n*) with n* = sigma sqrt(d/(cm)) = 10
        delta = subs[0].mean(axis=0) - a.clean.mean(axis=0)
        assert a.eta_sq == pytest.approx(5.4**2 * delta**2)

    def test_mechanism_stream_determinism(self, canonical):
        rng = spawn_stream(12, 0)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        a = _round(mech.mech_cross_check_corrupt, subs, canonical, 5.4, spawn_stream(12, 100))[0]
        b = _round(mech.mech_cross_check_corrupt, subs, canonical, 5.4, spawn_stream(12, 100))[0]
        assert np.array_equal(a.clean, b.clean)
        assert np.array_equal(a.corrupted, b.corrupted)


def _rows(a: np.ndarray) -> np.ndarray:
    """The rows of a, in lexicographic order."""
    return a[np.lexsort(a.T[::-1])]


class TestFocalHelpers:
    # every agent index of a round, served in index order from one mechanism
    # stream, checked against the submissions and a replay of that stream;
    # the class and test names are kept so that the test ids stay stable
    @pytest.mark.parametrize("own", [10, 5, 0], ids=["n*", "n*/2", "empty"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("m", [4, 9])
    @pytest.mark.parametrize("mechanism", ["pool", "size-check", "corrupt-deploy",
                                           "cross-check"])
    def test_agent_0_matches_list_function(self, mechanism, m, d, own):
        p = params_for(m, dim=d)
        rng = spawn_stream(13, m, d, own)
        subs = [rng.standard_normal((own, d)) + 0.5] + \
            [rng.standard_normal((p.n_star, d)) for _ in range(m - 1)]
        stream, replay = spawn_stream(14), spawn_stream(14)
        alpha = solve_alpha(p).alpha if m >= 5 else None
        for i in range(m):
            # the others' points, in index order
            others = np.concatenate([s for j, s in enumerate(subs) if j != i])
            if mechanism == "pool":
                assert np.array_equal(mech.mech_pool(subs, i), others)
            elif mechanism == "size-check":
                # nothing below n*
                want = others if len(subs[i]) >= p.n_star else np.empty((0, d))
                assert np.array_equal(mech.mech_size_check(subs, i, p), want)
            elif mechanism == "corrupt-deploy" and own == 0:
                state = stream.bit_generator.state
                with pytest.raises(mech.EmptySubmission):
                    mech.mech_corrupt_deploy(subs, i, p, 0.5, stream)
                assert stream.bit_generator.state == state
            elif mechanism == "corrupt-deploy":
                dep = mech.mech_corrupt_deploy(subs, i, p, 0.5, stream)
                noise = replay.standard_normal(others.shape) * np.sqrt(dep.eta_sq)
                assert np.allclose(dep.corrupted - noise, others, rtol=0, atol=1e-12)
                assert dep.value == pytest.approx(
                    np.concatenate([subs[i], dep.corrupted]).mean(axis=0), rel=1e-12)
            elif m <= 4:
                a = mech.mech_cross_check_corrupt(subs, i, p, None, None)
                assert np.array_equal(a.clean, others)
                assert a.corrupted.shape == (0, d)
                assert np.array_equal(a.eta_sq, np.zeros(d))
            else:
                a = mech.mech_cross_check_corrupt(subs, i, p, alpha, stream)
                replay.permutation(len(others))
                z = replay.standard_normal(a.corrupted.shape)
                # the clean rows are n* distinct rows of the others' pool
                hits = (a.clean[:, None] == others[None]).all(axis=2)
                assert len(a.clean) == p.n_star and (hits.sum(axis=1) == 1).all()
                assert len(set(hits.argmax(axis=1))) == p.n_star
                if len(subs[i]) == 0:
                    assert np.isinf(a.eta_sq).all()
                    continue
                assert a.eta_sq == pytest.approx(
                    alpha**2 * (subs[i].mean(axis=0) - a.clean.mean(axis=0)) ** 2, rel=1e-12)
                # with the replayed noise removed, clean and corrupted rows
                # partition the others' pool
                parts = np.concatenate([a.clean, a.corrupted - z * np.sqrt(a.eta_sq)])
                assert np.allclose(_rows(parts), _rows(others), rtol=0, atol=1e-12)


@pytest.mark.parametrize("i", [-1, 9])
@pytest.mark.parametrize("mechanism", ["pool", "size-check", "corrupt-deploy", "cross-check"])
def test_agent_index_out_of_range(canonical, canonical_alpha, mechanism, i):
    # i = -1 used to pool every agent's data and score the last agent's submission
    subs = [as_dataset(np.arange(10.0) + j) for j in range(9)]
    stream = spawn_stream(15)
    state = stream.bit_generator.state
    serve = {
        "pool": lambda: mech.mech_pool(subs, i),
        "size-check": lambda: mech.mech_size_check(subs, i, canonical),
        "corrupt-deploy": lambda: mech.mech_corrupt_deploy(subs, i, canonical, 0.5, stream),
        "cross-check": lambda: mech.mech_cross_check_corrupt(subs, i, canonical,
                                                             canonical_alpha, stream),
    }[mechanism]
    with pytest.raises(ValueError, match="agent index"):
        serve()
    assert stream.bit_generator.state == state


class _Recorder:
    """A mechanism stream that keeps every array it draws."""

    def __init__(self, stream):
        self.stream, self.draws = stream, []

    def permuted(self, x, axis):
        self.draws.append(self.stream.permuted(x, axis=axis))
        return self.draws[-1]

    def standard_normal(self, shape):
        self.draws.append(self.stream.standard_normal(shape))
        return self.draws[-1]


class _Replay:
    """Hands a single-round call round r's share of each recorded draw, in
    the order the batched call made them."""

    def __init__(self, draws, r):
        self.draws = iter([a[r] for a in draws])

    def permuted(self, x, axis):
        out = next(self.draws)
        assert out.shape == x.shape and axis == -1
        return out

    def standard_normal(self, shape):
        out = next(self.draws)
        assert out.shape == shape
        return out


class TestRoundAxis:
    # a call on (R, n, d) submissions plays R rounds at once; each of them
    # must equal a single-round call on that round's points and its share
    # of the draws, bit for bit, and so must the estimates read from them
    ESTIMATORS = [est.RecommendedWeighted(), est.PlainMeanAll(), est.CleanOnlyMean(),
                  est.FixedWeighted(1.0), est.PosteriorMean(1.0)]

    @pytest.mark.parametrize("own", [10, 5, 0], ids=["n*", "n*/2", "empty"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("m", [4, 9])
    @pytest.mark.parametrize("mechanism", ["pool", "size-check", "corrupt-deploy",
                                           "cross-check"])
    def test_rounds_match_single_round_calls(self, mechanism, m, d, own):
        p = params_for(m, dim=d)
        R = 4
        rng = spawn_stream(16, m, d, own)
        X = rng.standard_normal((R, own, d)) + 0.5
        subs = [X] + [rng.standard_normal((R, p.n_star, d)) for _ in range(m - 1)]
        alpha = solve_alpha(p).alpha if m >= 5 else None

        def serve(subs, stream):
            """The mechanism's allocation to agent 0, and its raw output."""
            if mechanism == "corrupt-deploy":
                dep = mech.mech_corrupt_deploy(subs, 0, p, 0.5, stream)
                empty = np.empty((*dep.corrupted.shape[:-2], 0, d))
                return mech.Allocation(empty, dep.corrupted, dep.eta_sq), dep.value
            if mechanism == "cross-check":
                a = mech.mech_cross_check_corrupt(subs, 0, p, alpha, stream)
                return a, a.clean
            pool = (mech.mech_pool(subs, 0) if mechanism == "pool"
                    else mech.mech_size_check(subs, 0, p))
            return mech.Allocation(pool, np.empty((*pool.shape[:-2], 0, d)),
                                   np.zeros((*pool.shape[:-2], d))), pool

        rec = _Recorder(spawn_stream(17))
        if mechanism == "corrupt-deploy" and own == 0:
            with pytest.raises(mech.EmptySubmission):
                serve(subs, rec)
            assert rec.draws == []
            return
        alloc, raw = serve(subs, rec)
        for r in range(R):
            one, one_raw = serve([s[r] for s in subs], _Replay(rec.draws, r))
            for a, b in ((alloc.clean, one.clean), (alloc.corrupted, one.corrupted),
                         (alloc.eta_sq, one.eta_sq), (raw, one_raw)):
                assert a[r].shape == b.shape and a[r].tobytes() == b.tobytes()
        for choice in self.ESTIMATORS:
            try:
                v = est.estimate(choice, X, alloc, p.sigma)
            except est.EmptyInput:
                for r in range(R):
                    one = serve([s[r] for s in subs], _Replay(rec.draws, r))[0]
                    with pytest.raises(est.EmptyInput):
                        est.estimate(choice, X[r], one, p.sigma)
                continue
            assert v.shape == (R, d)
            for r in range(R):
                one = serve([s[r] for s in subs], _Replay(rec.draws, r))[0]
                assert v[r].tobytes() == est.estimate(choice, X[r], one, p.sigma).tobytes()

    def test_mixed_round_axes_rejected(self):
        subs = [np.zeros((3, 10, 1)), np.zeros((3, 10, 1)), np.zeros((4, 10, 1))]
        with pytest.raises(ValueError, match="round axes"):
            mech.mech_pool(subs, 0)
