import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import as_dataset, params_for
from meanshare import mechanisms as mech
from meanshare.alphasolve import solve_alpha
from meanshare.params import ProblemParams, spawn_stream, validate_params


class TestPool:
    def test_union_of_others(self):
        subs = [as_dataset([1.0]), as_dataset([2.0]), as_dataset([3.0])]
        out = mech.mech_pool(subs)
        assert sorted(out[0].ravel()) == [2.0, 3.0]
        assert sorted(out[1].ravel()) == [1.0, 3.0]

    def test_all_empty(self):
        subs = [np.empty((0, 1))] * 3
        out = mech.mech_pool(subs)
        assert all(len(a) == 0 for a in out)


class TestSizeCheck:
    def test_below_threshold_gets_nothing(self, canonical):
        subs = [as_dataset(np.arange(9.0))] + [as_dataset(np.ones(10))] * 8
        out = mech.mech_size_check(subs, canonical)
        assert len(out[0]) == 0

    def test_at_threshold_gets_union(self, canonical):
        subs = [as_dataset(np.arange(10.0))] + [as_dataset(np.ones(10))] * 8
        out = mech.mech_size_check(subs, canonical)
        assert len(out[0]) == 80

    def test_all_recommended(self, canonical):
        subs = [as_dataset(np.ones(10))] * 9
        out = mech.mech_size_check(subs, canonical)
        assert all(len(a) == 8 * 10 for a in out)

    def test_permutation_covariance(self, canonical):
        rng = spawn_stream(0, 7)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        out = mech.mech_size_check(subs, canonical)
        perm = [3, 0, 1, 2, 4, 5, 6, 7, 8]
        out_p = mech.mech_size_check([subs[i] for i in perm], canonical)
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

    def test_zero_discrepancy_is_plain_pool(self, canonical):
        subs = [as_dataset(np.full(10, 5.0))] * 9
        out = mech.mech_corrupt_deploy(subs, canonical, 0.5, spawn_stream(1, 0))
        for dep in out:
            assert dep.eta_sq[0] == 0.0
            assert dep.value[0] == pytest.approx(5.0)

    def test_beta_forms_agree(self, canonical):
        # the published form and the per-agent rewrite coincide whenever the
        # other agents submit n* points each, for any own size and any k
        ns = canonical.n_star
        for k in (1, 2, 5):
            for own in (1, ns, 3 * ns):
                total = own + (canonical.agents - 1) * ns
                assert mech.beta_sq_published(total, canonical, k) == pytest.approx(
                    mech.beta_sq_recommended_form(own, canonical, k), rel=1e-12
                )

    def test_empty_rejected(self, canonical):
        subs = [np.empty((0, 1))] + [as_dataset(np.ones(10))] * 8
        with pytest.raises(mech.EmptySubmission):
            mech.mech_corrupt_deploy(subs, canonical, 0.5, spawn_stream(1, 1))

    def test_deploy_is_mean_of_own_and_corrupted(self, canonical):
        rng = spawn_stream(2, 0)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        dep = mech.mech_corrupt_deploy(subs, canonical, 0.5, spawn_stream(2, 1))[0]
        expect = np.concatenate([subs[0], dep.corrupted]).mean()
        assert dep.value[0] == pytest.approx(expect, rel=1e-12)


class TestCrossCheckCorrupt:
    def test_small_m_pools(self):
        p = validate_params(ProblemParams(1.0, 1 / 64, 4, 1))
        subs = [as_dataset([float(i)] * 2) for i in range(4)]
        out = mech.mech_cross_check_corrupt(subs, p, None, spawn_stream(3, 100))
        assert len(out[0].clean) == 6
        assert len(out[0].corrupted) == 0
        assert out[0].eta_sq[0] == 0.0

    def test_eta_formula(self, canonical):
        # construct submissions so that mean(Y_0)=2 and every cross-check
        # point equals 1, giving eta^2 = alpha^2 (2-1)^2 = 16 for alpha=4
        subs = [as_dataset(np.full(10, 2.0))] + [as_dataset(np.ones(10))] * 8
        out = mech.mech_cross_check_corrupt(subs, canonical, 4.0, spawn_stream(4, 100))
        assert out[0].eta_sq[0] == pytest.approx(16.0)

    def test_equilibrium_sizes(self, canonical):
        rng = spawn_stream(5, 0)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        out = mech.mech_cross_check_corrupt(subs, canonical, 5.4, spawn_stream(5, 100))
        for a in out:
            assert len(a.clean) == 10
            assert len(a.corrupted) == 70

    def test_partition_recovers_pool(self, canonical):
        rng = spawn_stream(6, 0)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        a = mech.mech_cross_check_corrupt(subs, canonical, 5.4, spawn_stream(6, 100))[0]
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
        a0 = mech.mech_cross_check_corrupt(subs, canonical, 5.4, spawn_stream(8, 100))[0]
        a1 = mech.mech_cross_check_corrupt([s + t for s in subs], canonical, 5.4,
                                           spawn_stream(8, 100))[0]
        assert a1.eta_sq[0] == pytest.approx(a0.eta_sq[0], rel=1e-9, abs=1e-12)
        assert np.allclose(a1.clean, a0.clean + t)
        assert np.allclose(a1.corrupted, a0.corrupted + t, rtol=1e-9, atol=1e-9)

    def test_empty_submission_sentinel(self, canonical):
        subs = [np.empty((0, 1))] + [as_dataset(np.ones(10))] * 8
        a = mech.mech_cross_check_corrupt(subs, canonical, 5.4, spawn_stream(9, 100))[0]
        assert np.isinf(a.eta_sq[0])

    def test_missing_alpha_rejected(self, canonical):
        subs = [as_dataset(np.ones(10))] * 9
        with pytest.raises(ValueError):
            mech.mech_cross_check_corrupt(subs, canonical, None, spawn_stream(10, 100))

    def test_highdim_elementwise(self):
        p = validate_params(ProblemParams(1.0, 1 / 300, 9, 3))
        rng = spawn_stream(11, 0)
        subs = [rng.standard_normal((10, 3)) for _ in range(9)]
        a = mech.mech_cross_check_corrupt(subs, p, 5.4, spawn_stream(11, 100))[0]
        assert a.eta_sq.shape == (3,)
        assert len(a.clean) == 10  # min(80, n*) with n* = sigma sqrt(d/(cm)) = 10
        delta = subs[0].mean(axis=0) - a.clean.mean(axis=0)
        assert a.eta_sq == pytest.approx(5.4**2 * delta**2)

    def test_mechanism_stream_determinism(self, canonical):
        rng = spawn_stream(12, 0)
        subs = [as_dataset(rng.standard_normal(10)) for _ in range(9)]
        a = mech.mech_cross_check_corrupt(subs, canonical, 5.4, spawn_stream(12, 100))[0]
        b = mech.mech_cross_check_corrupt(subs, canonical, 5.4, spawn_stream(12, 100))[0]
        assert np.array_equal(a.clean, b.clean)
        assert np.array_equal(a.corrupted, b.corrupted)


def _arrays(out) -> list:
    """A mechanism output as its list of fields (an array is its own field)."""
    if isinstance(out, np.ndarray):
        return [out]
    return [getattr(out, f.name) for f in fields(out)]


class TestFocalHelpers:
    # the reference path plays agent 0 alone through the per-agent helpers;
    # agent 0 draws first from the mechanism stream, so on the same stream
    # each helper must give exactly what the list function gives agent 0
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
        if mechanism == "corrupt-deploy":
            if own == 0:
                with pytest.raises(mech.EmptySubmission):
                    mech.mech_corrupt_deploy(subs, p, 0.5, spawn_stream(14))
                with pytest.raises(mech.EmptySubmission):
                    mech._deploy_scale(subs, p, 0.5)
                return
            listed = mech.mech_corrupt_deploy(subs, p, 0.5, spawn_stream(14))[0]
            alone = mech._corrupt_deploy_for(subs, 0, *mech._deploy_scale(subs, p, 0.5),
                                             spawn_stream(14))
        elif mechanism == "cross-check" and m >= 5:
            alpha = solve_alpha(p).alpha
            listed = mech.mech_cross_check_corrupt(subs, p, alpha, spawn_stream(14))[0]
            alone = mech._cross_check_for(subs, 0, d, p, alpha, spawn_stream(14))
            assert np.isinf(alone.eta_sq).all() == (own == 0)
        elif mechanism == "cross-check":
            listed = mech.mech_cross_check_corrupt(subs, p, None, None)[0]
            alone = mech.Allocation(mech._pool_others(subs, 0, d), np.empty((0, d)),
                                    np.zeros(d))
        elif mechanism == "pool":
            listed = mech.mech_pool(subs)[0]
            alone = mech._pool_others(subs, 0, d)
        else:
            listed = mech.mech_size_check(subs, p)[0]
            alone = mech._size_gate(subs[0], mech._pool_others(subs, 0, d), p)
            assert len(alone) == (0 if own < p.n_star else (m - 1) * p.n_star)
        assert type(alone) is type(listed)
        for a, b in zip(_arrays(alone), _arrays(listed), strict=True):
            assert (a is None and b is None) or np.array_equal(a, b)
