import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from driftsched import (
    BoundaryIterate,
    ExplicitConstants,
    InvalidEpsilon,
    LengthMismatch,
    MissingScheduleMetadata,
    NonFiniteGradient,
    ScheduleConfig,
    ShapeMismatch,
    SimplexVec,
    bound_rhs,
    neg_entropy,
    proxy_bound_rhs,
    run_dynamic,
    run_dynamic_many,
)
import omd_reference
from omd_reference import LinearLoss, OmdState, md_step, regularized_grad

MD_UNIFORM2_G10 = (0.26894142136999512075, 0.73105857863000487925)


def uniform_state(k, eps=0.0):
    return OmdState(x=SimplexVec.uniform(k, eps))


class TestMdStep:
    def test_zero_gradient_identity(self):
        s = uniform_state(4)
        out = md_step(s, np.zeros(4), eta=0.7, eps=0.0)
        assert np.allclose(out.x.probs, 0.25, atol=1e-15)
        assert out.t == 1 and out.eta_prev == 0.7

    def test_frozen_two_point(self):
        s = uniform_state(2)
        out = md_step(s, np.array([1.0, 0.0]), eta=1.0, eps=0.0)
        assert out.x.probs == pytest.approx(MD_UNIFORM2_G10, abs=1e-14)

    def test_zero_eta_is_identity(self):
        s = OmdState(x=SimplexVec(np.array([0.7, 0.3])))
        out = md_step(s, np.array([5.0, -3.0]), eta=0.0, eps=0.0)
        assert np.allclose(out.x.probs, [0.7, 0.3])

    def test_nonfinite_gradient(self):
        with pytest.raises(NonFiniteGradient):
            md_step(uniform_state(2), np.array([np.nan, 0.0]), 0.5, 0.0)

    def test_floor_enforced(self):
        out = md_step(uniform_state(2), np.array([50.0, 0.0]), 1.0, eps=0.01)
        assert out.x.probs.min() >= 0.01 - 1e-12

    def test_matches_prox_grid_search_k3(self):
        # independent route: brute-force the proximal objective
        # eta*<g,x> + KL(x, x_t) over the 3-simplex, coarse then refined
        rng = np.random.default_rng(4)
        for _ in range(5):
            x_t = rng.dirichlet(np.ones(3))
            g = rng.uniform(-2, 2, 3)
            eta = float(rng.uniform(0.1, 1.5))

            def objective(a, b):
                c = 1.0 - a - b
                pts = np.stack([a, b, c])
                with np.errstate(divide="ignore", invalid="ignore"):
                    kl = np.where(pts > 0, pts * np.log(pts / x_t[:, None]), 0.0).sum(axis=0)
                lin = eta * (g[:, None] * pts).sum(axis=0)
                return lin + kl

            grid = np.linspace(0.0, 1.0, 401)
            aa, bb = np.meshgrid(grid, grid)
            mask = aa + bb <= 1.0
            a, b = aa[mask], bb[mask]
            vals = objective(a, b)
            i = int(np.argmin(vals))
            a0, b0 = a[i], b[i]
            fine_a = np.linspace(max(a0 - 0.005, 0), min(a0 + 0.005, 1), 401)
            fine_b = np.linspace(max(b0 - 0.005, 0), min(b0 + 0.005, 1), 401)
            aa, bb = np.meshgrid(fine_a, fine_b)
            mask = aa + bb <= 1.0
            a, b = aa[mask], bb[mask]
            vals = objective(a, b)
            i = int(np.argmin(vals))
            best = np.array([a[i], b[i], 1.0 - a[i] - b[i]])

            out = md_step(OmdState(x=SimplexVec(x_t)), g, eta, eps=0.0)
            assert np.abs(out.x.probs - best).max() <= 1e-4


class TestRegularizedGrad:
    def test_lambda_zero(self):
        g = np.array([0.3, -0.2, 1.0])
        x = SimplexVec.uniform(3)
        assert np.array_equal(regularized_grad(g, x, 0.0), g)

    def test_uniform_symmetry(self):
        k, lam = 5, 0.4
        out = regularized_grad(np.zeros(k), SimplexVec.uniform(k), lam)
        assert np.allclose(out, lam * (1.0 - math.log(k)))

    def test_norm_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            k = int(rng.integers(2, 15))
            eps = float(rng.uniform(1e-6, 1.0 / k))
            from driftsched import truncate

            x = truncate(rng.dirichlet(np.ones(k)), eps)
            g_bound = 2.0
            g = rng.uniform(-g_bound, g_bound, k)
            lam = float(rng.uniform(0.0, 1.0))
            out = regularized_grad(g, x, lam)
            cap = g_bound + lam * (1.0 + abs(math.log(eps)))
            assert np.abs(out).max() <= cap + 1e-12

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryIterate):
            regularized_grad(np.zeros(2), np.array([1.0, 0.0]), 0.5)


@pytest.fixture
def steps(monkeypatch):
    """The next iterates of every omd._mirror_step call (omd_reference.record_steps)."""
    from driftsched import omd

    return omd_reference.record_steps(monkeypatch, omd)


def stream_iterates(steps, b, k, horizon):
    """Stream b's iterates x_1 .. x_T in a run from the uniform start: x_1, then
    its unpadded row of each of the first T - 1 recorded steps."""
    return np.array([np.full(k, 1.0 / k)] + [x[b, :k] for x in steps[:horizon - 1]])


def constant_schedule(value, c=1.0):
    return ScheduleConfig(
        mode="fixed", fixed_value=value, c=c,
        lambda_min=min(value, 0.05), lambda_max=max(value, 1.0),
    )


class TestRunDynamic:
    def test_single_round_self_comparator(self):
        tr = run_dynamic(np.array([[0.4, -0.1]]), [np.array([0.5, 0.5])],
                         constant_schedule(0.2), 1e-6)
        assert len(tr) == 1
        assert tr.column("regret_cum")[-1] == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            run_dynamic(np.zeros((1, 2)), [], constant_schedule(0.1), 0.0)

    def test_alpha_column_is_comparator_drift(self):
        rng = np.random.default_rng(1)
        us = [rng.dirichlet(np.ones(3)) for _ in range(40)]
        losses = np.array([rng.uniform(-1, 1, 3) for _ in range(40)])
        tr = run_dynamic(losses, us, constant_schedule(0.1), 1e-6)
        expected = [0.0] + [float(np.abs(b - a).sum()) for a, b in zip(us, us[1:])]
        assert tr.column("alpha") == pytest.approx(expected, abs=1e-14)

    def test_converges_to_regularized_optimum(self):
        g = np.array([0.8, -0.5])
        lam, c = 0.3, 1.0
        losses = np.tile(g, (300, 1))
        us = [np.array([0.2, 0.8])] * 300
        tr = run_dynamic(losses, us, constant_schedule(lam, c), eps=1e-9)
        inc = tr.column("regret_inc")
        assert (np.diff(inc[3:]) <= 1e-12).all()
        # 1-D grid search of <g,x> + lam * neg_entropy(x) over the 2-simplex
        grid = np.linspace(1e-9, 1 - 1e-9, 2_000_001)
        obj = g[0] * grid + g[1] * (1 - grid) + lam * (
            grid * np.log(grid) + (1 - grid) * np.log(1 - grid)
        )
        best = grid[np.argmin(obj)]
        # recover the final iterate from the last recorded increment:
        # inc = g.x - g.u  =>  x_0 = (inc + g.u - g_1) / (g_0 - g_1)
        x_final = (inc[-1] + g @ us[-1] - g[1]) / (g[0] - g[1])
        assert abs(x_final - best) <= 1e-4

    def test_eta_nondecreasing_and_floor(self):
        rng = np.random.default_rng(2)
        losses = np.array([rng.uniform(-1, 1, 4) for _ in range(200)])
        us = [rng.dirichlet(np.ones(4)) for _ in range(200)]
        cfg = ScheduleConfig(mode="online", ema_beta=0.0)
        tr = run_dynamic(losses, us, cfg, eps=1e-6)
        eta = tr.column("eta")
        assert (np.diff(eta) >= -1e-15).all()
        lam = tr.column("lambda")
        assert (lam >= cfg.lambda_min - 1e-15).all()
        assert (lam <= cfg.lambda_max + 1e-15).all()

    def test_iterates_recorded_and_floored(self, steps):
        rng = np.random.default_rng(6)
        losses = np.array([rng.uniform(-3, 3, 5) for _ in range(150)])
        us = [rng.dirichlet(np.ones(5)) for _ in range(150)]
        eps = 1e-4
        tr = run_dynamic(losses, us, constant_schedule(0.2), eps=eps)
        assert len(steps) == 150
        for x in stream_iterates(steps, 0, 5, 150):
            assert x.min() >= eps - 1e-12
            assert abs(x.sum() - 1.0) <= 1e-12
        # uniform start keeps the initial divergence at most log K
        assert 0.0 <= tr.meta["d_psi_start"] <= math.log(5) + 1e-12

    def test_overflowing_step_raises(self):
        # eta * g overflows to +-inf in round 1, so the step's logits are NaN
        grads = np.array([[1e308, -1e308], [1e308, -1e308], [0.5, 0.1]])
        with pytest.raises(NonFiniteGradient, match="NaN"):
            run_dynamic(grads, [np.array([0.5, 0.5])] * 3, constant_schedule(1.0, c=4.0), 0.1)

    @pytest.mark.parametrize("row,error", [
        ([2.0, -1.0], "comparator has a coordinate below floor 0.0"),
        ([np.nan, 0.5], "comparator has a NaN coordinate"),
        ([0.3, 0.3], "comparator's probabilities do not sum to 1"),
    ])
    def test_comparators_are_simplex_points(self, row, error):
        us = [np.array([0.5, 0.5]), np.array(row), np.array([0.5, 0.5])]
        with pytest.raises(ValueError, match=error):
            run_dynamic(np.zeros((3, 2)), us, constant_schedule(0.1), 1e-6)


class TestBounds:
    def make_trace(self, lam, alpha):
        t = np.arange(1, len(lam) + 1)
        cols = {
            "t": t, "lambda": np.asarray(lam), "eta": np.asarray(lam),
            "alpha": np.asarray(alpha), "proxy": np.asarray(alpha),
            "regret_inc": np.zeros(len(lam)), "regret_cum": np.zeros(len(lam)),
        }
        from driftsched import RunTrace
        return RunTrace(columns=cols)

    def test_plugin_constant(self):
        consts = ExplicitConstants(c0=2.0, c1=3.0, c2=5.0)
        horizon = 50
        tr = self.make_trace([0.2] * horizon, [0.0] * horizon)
        assert bound_rhs(tr, consts) == pytest.approx(2.0 + 5.0 * 0.2 * (horizon - 1))

    def test_oracle_plugin_identity(self):
        # with lambda_t = sqrt(C1 a_t / C2) each round contributes
        # 2 sqrt(C1 C2 a_t)
        consts = ExplicitConstants(c0=1.0, c1=4.0, c2=9.0)
        rng = np.random.default_rng(0)
        alpha = np.concatenate([[0.0], rng.uniform(0, 2, 30)])
        lam = np.sqrt(consts.c1 * alpha / consts.c2)
        tr = self.make_trace(lam, alpha)
        want = 1.0 + 2.0 * math.sqrt(consts.c1 * consts.c2) * np.sqrt(alpha[1:]).sum()
        assert bound_rhs(tr, consts) == pytest.approx(want, rel=1e-12)

    def test_missing_metadata(self):
        from driftsched import RunTrace
        tr = RunTrace(columns={"t": np.arange(3)})
        with pytest.raises(MissingScheduleMetadata):
            bound_rhs(tr, ExplicitConstants(1.0, 1.0, 1.0))
        with pytest.raises(MissingScheduleMetadata):
            proxy_bound_rhs(tr, ExplicitConstants(1.0, 1.0, 1.0), 4)

    def test_derive_formulas(self):
        cfg = ScheduleConfig(c=0.5, lambda_min=0.1, lambda_max=0.8, mode="fixed",
                             fixed_value=0.1)
        eps = math.exp(-3)  # G_psi = 4
        consts = ExplicitConstants.derive(cfg, g_bound=2.0, k=4, eps=eps, lambda1=0.1)
        assert consts.c1 == pytest.approx(2 * 4.0 / 0.5)
        want_c2 = 0.25 * (2.0 + 0.8 * 4.0) ** 2 + 2 * math.log(4)
        assert consts.c2 == pytest.approx(want_c2)
        assert consts.c0 == pytest.approx(math.log(4) / (0.5 * 0.1) + want_c2 * 0.1)

    def test_regret_below_bound_on_random_streams(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            k = int(rng.integers(2, 9))
            horizon = 300
            losses = np.array([rng.uniform(-1, 1, k) for _ in range(horizon)])
            u = rng.dirichlet(np.ones(k))
            us = []
            for t in range(horizon):
                if t in (100, 200):
                    u = rng.dirichlet(np.ones(k))
                us.append(u)
            cfg = ScheduleConfig(mode="online", ema_beta=0.0)
            tr = run_dynamic(losses, us, cfg, eps=1e-6)
            consts = ExplicitConstants.derive_from_trace(tr)
            measured = tr.column("regret_cum")[-1]
            assert measured <= bound_rhs(tr, consts) + 1e-8
            assert measured <= proxy_bound_rhs(tr, consts, k) + 1e-8


def reference_run_dynamic(losses, comparators, cfg, eps):
    """Per-round loop: one LinearLoss, SimplexVec and md_step per round, with
    the per-mode schedule rule written out."""
    from driftsched import (ProxyState, eta_from_lambda, kl_div, online_lambda,
                            oracle_lambda, truncate, update_proxy)

    comparators = [np.asarray(u, dtype=float) for u in comparators]
    k = losses[0].grad.size
    x0 = SimplexVec.uniform(k)
    state = OmdState(x=truncate(x0, eps) if eps > 0.0 else x0)
    cols = {name: [] for name in ("t", "lambda", "eta", "alpha", "proxy", "regret_inc")}
    iterates = []
    u_prev, g_bound, proxy = comparators[0], 0.0, ProxyState()
    for t, (loss, u) in enumerate(zip(losses, comparators), start=1):
        alpha = float(np.abs(u - u_prev).sum())
        if cfg.mode == "fixed":
            lam = cfg.fixed_value
        elif cfg.mode == "oracle":
            lam = oracle_lambda(alpha, cfg)
        else:
            proxy = update_proxy(proxy, alpha, cfg)
            lam = online_lambda(proxy, cfg)
        eta = eta_from_lambda(lam, state.eta_prev, cfg)
        cols["regret_inc"].append(loss.value(state.x) - loss.value(u))
        iterates.append(state.x.probs)
        state = md_step(state, regularized_grad(loss.grad, state.x, lam), eta, eps)
        g_bound = max(g_bound, float(np.abs(loss.grad).max()))
        cols["t"].append(t)
        cols["lambda"].append(lam)
        cols["eta"].append(eta)
        cols["alpha"].append(alpha)
        cols["proxy"].append(proxy.ema_value if cfg.mode == "online" else alpha)
        u_prev = u
    columns = {name: np.asarray(col) for name, col in cols.items()}
    columns["regret_cum"] = np.cumsum(columns["regret_inc"])
    try:
        d_psi_start = kl_div(comparators[0], iterates[0])
    except ValueError:
        d_psi_start = math.inf
    meta = {"k": k, "eps": eps, "g_bound": g_bound, "c": cfg.c,
            "lambda_min": cfg.lambda_min, "lambda_max": cfg.lambda_max,
            "lambda1": cols["lambda"][0], "cfg_c1": cfg.c1, "cfg_c2": cfg.c2,
            "d_psi_start": d_psi_start}
    return columns, meta, iterates


def drifting_stream(seed, k, horizon, g_scale=1.0):
    rng = np.random.default_rng(seed)
    grads = rng.uniform(-g_scale, g_scale, (horizon, k))
    u = rng.dirichlet(np.ones(k))
    us = []
    for t in range(horizon):
        if t in (horizon // 3, 2 * horizon // 3):
            u = rng.dirichlet(np.ones(k))
        us.append(u)
    return grads, us


def schedule_for(mode):
    return ScheduleConfig(mode=mode, ema_beta=0.0 if mode == "online" else 0.95,
                          fixed_value=0.2, lambda_min=0.05, lambda_max=1.0)


def assert_matches_reference(tr, reference, played):
    """Every column (values and dtype) and meta value of tr, and each iterate
    played in its run, equals the reference loop's."""
    cols, meta, iterates = reference
    assert list(tr.columns) == ["t", "lambda", "eta", "alpha", "proxy",
                                "regret_inc", "regret_cum"]
    for name, col in cols.items():
        assert tr.column(name).dtype == col.dtype, name
        assert np.array_equal(tr.column(name), col), name
    assert tr.meta == meta
    assert len(played) == len(iterates)
    for x, ref in zip(played, iterates):
        assert np.array_equal(x, ref)


class TestRunDynamicMatchesPerRoundLoop:
    """run_dynamic repeats the per-round md_step loop bit for bit."""

    def assert_same(self, steps, losses, stream, us, mode, eps):
        tr = run_dynamic(stream, us, schedule_for(mode), eps)
        played = stream_iterates(steps, 0, stream.shape[1], len(stream))
        assert_matches_reference(
            tr, reference_run_dynamic(losses, us, schedule_for(mode), eps), played)
        return played

    @pytest.mark.parametrize("mode", ["fixed", "oracle", "online"])
    @pytest.mark.parametrize("k", [2, 5, 9, 16])
    def test_schedules(self, steps, mode, k):
        grads, us = drifting_stream(k, k, 300)
        losses = [LinearLoss(g) for g in grads]
        self.assert_same(steps, losses, grads, us, mode, 1e-6)

    @pytest.mark.parametrize("mode", ["fixed", "online"])
    def test_eps_zero(self, steps, mode):
        grads, us = drifting_stream(3, 6, 250, g_scale=3.0)
        losses = [LinearLoss(g) for g in grads]
        self.assert_same(steps, losses, grads, us, mode, 0.0)

    @pytest.mark.parametrize("mode", ["fixed", "oracle", "online"])
    def test_floor_active(self, steps, mode):
        eps = 1e-3
        grads, us = drifting_stream(5, 7, 250, g_scale=60.0)
        losses = [LinearLoss(g) for g in grads]
        played = self.assert_same(steps, losses, grads, us, mode, eps)
        assert (np.abs(played - eps) < 1e-15).any()

    def test_bad_inputs_rejected_up_front(self):
        sched = constant_schedule(0.1)
        with pytest.raises(NonFiniteGradient):
            run_dynamic(np.array([[0.0, 1.0], [np.inf, 0.0]]),
                        [np.array([0.5, 0.5])] * 2, sched, 1e-6)
        for eps in (-1e-6, 0.6, math.nan):
            with pytest.raises(InvalidEpsilon):
                run_dynamic(np.zeros((2, 2)), [np.array([0.5, 0.5])] * 2, sched, eps)
        with pytest.raises(ShapeMismatch):
            run_dynamic(np.zeros((2, 3)), [np.array([0.5, 0.5])] * 2, sched, 1e-6)

    def test_boundary_iterate_without_floor(self):
        grads = np.zeros((3, 2))
        grads[0, 0] = 1e4  # exp(-0.1 * 1e4) underflows to 0: round 2 starts on a face
        with pytest.raises(BoundaryIterate):
            run_dynamic(grads, [np.array([0.5, 0.5])] * 3, constant_schedule(0.1), 0.0)


class TestMdStepOperationOrder:
    @pytest.mark.parametrize("eps", [0.0, 1e-6, 0.02])
    def test_matches_inline_formula(self, eps):
        # logits = log p - eta g, shift by the max, exp, divide by the sum,
        # then truncate only below the floor: bit for bit
        from driftsched import truncate

        rng = np.random.default_rng(8)
        for _ in range(300):
            k = int(rng.integers(2, 17))
            p = truncate(rng.dirichlet(np.ones(k)), 1e-3).probs
            g = rng.uniform(-40, 40, k)
            eta = float(rng.uniform(0.0, 1.0))
            logits = np.log(p) - eta * g
            logits -= logits.max()
            w = np.exp(logits)
            want = w / w.sum()
            if eps > 0.0 and (want < eps).any():
                want = truncate(want, eps).probs
            got = md_step(OmdState(x=SimplexVec(p)), g, eta, eps).x.probs
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(6, 5), (4, 3, 4)])
    def test_writes_rows_through_a_strided_view(self, shape):
        # out is a strided view, one round's slice of a (B, T, ...) history, which
        # at the planner's (B, S, A) shape no reshape can view. Rows that the floor
        # truncates land in it beside rows it leaves alone
        from driftsched.omd import _mirror_step

        rng = np.random.default_rng(11)
        k, eps = shape[-1], 0.02
        p = rng.dirichlet(np.ones(k), size=shape[:-1])
        g = rng.uniform(-1.0, 1.0, shape)
        g[::2] *= 80.0  # every other stream's rows fall below the floor
        eta = rng.uniform(0.1, 1.0, shape[:-1] + (1,))
        history = np.full((shape[0], 3) + shape[1:], np.nan)
        out = history[:, 1]
        assert not out.flags.c_contiguous
        _mirror_step(np.log(p), g.copy(), eta, eps, out)
        assert np.isnan(history[:, 0]).all() and np.isnan(history[:, 2]).all()
        floored = 0
        for i in np.ndindex(*shape[:-1]):
            want = md_step(OmdState(x=SimplexVec(p[i])), g[i], float(eta[i][0]), eps).x.probs
            assert np.array_equal(out[i], want)
            floored += bool((np.abs(want - eps) < 1e-15).any())
        assert 0 < floored < out[..., 0].size  # truncated and untouched rows in one call


MIXED_MODES = ("fixed", "oracle", "online")
# online with ema_beta 0.9 runs the EMA fold that schedule_for's ema_beta 0 skips
MIXED_SCHEDULES = [schedule_for(mode) for mode in MIXED_MODES] + [
    ScheduleConfig(mode="online", ema_beta=0.9, lambda_min=0.05, lambda_max=1.0)]


def batch_of_streams(n, k, horizon, g_scale):
    """n drifting streams of one shape, stacked, and their LinearLoss lists."""
    draws = [drifting_stream(100 * k + b, k, horizon, g_scale) for b in range(n)]
    grads = np.stack([d[0] for d in draws])
    us = np.stack([np.array(d[1]) for d in draws])
    losses = [[LinearLoss(g) for g in grads[b]] for b in range(n)]
    return grads, us, losses


class TestRunDynamicMany:
    """run_dynamic_many repeats the per-round loop of every stream bit for bit."""

    @pytest.mark.parametrize("floor", ["zero", "small", "active", "mixed"])
    @pytest.mark.parametrize("k", [2, 5, 16])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_matches_per_stream_loop(self, steps, n, k, floor):
        eps, g_scale = {"zero": (0.0, 3.0), "small": (1e-6, 1.0),
                        "active": (0.9 / k, 60.0), "mixed": (0.5 / k, 60.0)}[floor]
        grads, us, losses = batch_of_streams(n, k, 90, g_scale)
        if floor == "mixed":  # odd streams stay off the floor: rows of one round differ
            grads[1::2] /= 600.0
            losses = [[LinearLoss(g) for g in grads[b]] for b in range(n)]
        cfgs = [MIXED_SCHEDULES[b % 4] for b in range(n)]
        traces = run_dynamic_many(grads, us, cfgs, eps)
        assert len(traces) == n
        played = [stream_iterates(steps, b, k, 90) for b in range(n)]
        for b, tr in enumerate(traces):
            want = reference_run_dynamic(losses[b], us[b], cfgs[b], eps)
            assert_matches_reference(tr, want, played[b])
            # the stream alone gives the same trace as inside the batch
            steps.clear()
            alone = run_dynamic_many(grads[b:b + 1], us[b:b + 1], cfgs[b:b + 1], eps)[0]
            assert_matches_reference(alone, want, stream_iterates(steps, 0, k, 90))
        # (B, T): stream b's iterate of round t has a coordinate at the floor
        at_floor = np.array([(np.abs(x - eps) < 1e-15).any(axis=-1) for x in played])
        if floor == "active":
            assert at_floor.any()
        if floor == "mixed" and n > 1:  # a round with rows on and off the floor
            assert (at_floor.any(axis=0) & ~at_floor.all(axis=0)).any()

    @pytest.mark.parametrize("change,error", [
        (lambda a: {**a, "grads": a["grads"][:, :, :2]}, ShapeMismatch),
        (lambda a: {**a, "grads": a["grads"][..., None]}, ShapeMismatch),
        (lambda a: {**a, "comparators": a["comparators"][:, :, :2]}, ShapeMismatch),
        (lambda a: {**a, "grads": a["grads"][:, :5]}, LengthMismatch),
        (lambda a: {**a, "grads": a["grads"][:, :0], "comparators": a["comparators"][:, :0]},
         LengthMismatch),
        (lambda a: {**a, "cfgs": a["cfgs"][:2]}, LengthMismatch),
        (lambda a: {**a, "grads": a["grads"][:0], "comparators": a["comparators"][:0],
                    "cfgs": []}, LengthMismatch),
        (lambda a: {**a, "eps": 0.5}, InvalidEpsilon),
        (lambda a: {**a, "eps": -1e-9}, InvalidEpsilon),
        (lambda a: {**a, "eps": math.nan}, InvalidEpsilon),
        (lambda a: {**a, "grads": np.where(a["grads"] > 0.9, np.inf, a["grads"])},
         NonFiniteGradient),
    ])
    def test_boundary_errors_before_round_one(self, monkeypatch, change, error):
        from driftsched import omd

        def no_round(*args):
            raise AssertionError("a round ran before the inputs were checked")

        monkeypatch.setattr(omd, "_mirror_step", no_round)
        grads, us, _ = batch_of_streams(3, 3, 20, 1.0)
        args = {"grads": grads, "comparators": us, "eps": 1e-6,
                "cfgs": [schedule_for(mode) for mode in MIXED_MODES]}
        with pytest.raises(error):
            run_dynamic_many(**change(args))

    def test_no_per_round_schedule_call(self, monkeypatch, steps):
        from driftsched import omd, scheduler

        def per_round(*args):
            raise AssertionError("run_dynamic_many called next_lambda")

        for module in (scheduler, omd):
            monkeypatch.setattr(module, "next_lambda", per_round, raising=False)
        grads, us, losses = batch_of_streams(3, 4, 50, 1.0)
        cfgs = MIXED_SCHEDULES[1:]
        for b, tr in enumerate(run_dynamic_many(grads, us, cfgs, 1e-6)):
            assert_matches_reference(tr, reference_run_dynamic(losses[b], us[b], cfgs[b], 1e-6),
                                     stream_iterates(steps, b, 4, 50))

    def test_boundary_iterate_without_floor(self):
        grads, us, _ = batch_of_streams(2, 2, 5, 1.0)
        grads[1, 0, 0] = 1e4  # exp(-0.2 * 1e4) underflows to 0: round 2 starts on a face
        with pytest.raises(BoundaryIterate):
            run_dynamic_many(grads, us, [schedule_for("fixed")] * 2, 0.0)

    def test_boundary_iterate_at_the_reference_round(self, monkeypatch):
        # without a floor, a coordinate that underflows to 0 stops the batch at the
        # first round whose iterate has it, as the per-round loop stops its stream
        from driftsched import omd

        grads, us, losses = batch_of_streams(3, 4, 12, 1.0)
        for b, spike in enumerate((9, 6, 8)):  # exp(-0.2 * 1e4) underflows to 0
            grads[b, spike, b] = 1e4
            losses[b][spike] = LinearLoss(grads[b, spike])
        cfgs = [schedule_for("fixed")] * 3

        def steps_until_boundary(module, run):
            calls, real = [], module._mirror_step
            monkeypatch.setattr(module, "_mirror_step", lambda *a: calls.append(1) or real(*a))
            with pytest.raises(BoundaryIterate):
                run()
            monkeypatch.undo()
            return len(calls)

        per_stream = [steps_until_boundary(omd_reference, lambda: reference_run_dynamic(
            losses[b], us[b], cfgs[b], 0.0)) for b in range(3)]
        assert per_stream == [10, 7, 9]  # the spike's round, plus one
        assert steps_until_boundary(omd, lambda: run_dynamic_many(grads, us, cfgs, 0.0)) == 7

    def test_peak_keeps_no_iterate_history(self):
        # the rounds hold one CHUNK of iterates; a (B, T, K) history would add
        # K * 8 bytes a stream and round
        import tracemalloc

        n, k, peaks = 8, 64, []
        for horizon in (250, 1250):
            grads, us, _ = batch_of_streams(n, k, horizon, 1.0)
            tracemalloc.start()
            try:
                run_dynamic_many(grads, us, [schedule_for("online")] * n, 1e-6)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < k * 8 * n * (1250 - 250)

    def test_drift_pass_holds_no_stream_of_rows(self):
        # the drift column and max |g| are read a CHUNK of rounds at a time: a
        # (T, K) temporary of one stream would add K * 8 bytes a round, and
        # np.abs(np.diff(us[b])) held two of them
        import tracemalloc

        n, k, peaks = 2, 64, []
        for horizon in (250, 1250):
            grads, us, _ = batch_of_streams(n, k, horizon, 1.0)
            tracemalloc.start()
            try:
                run_dynamic_many(grads, us, [schedule_for("online")] * n, 1e-6)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < k * 8 * (1250 - 250)


class TestLockstepWidthClasses:
    """omd._run_lockstep on blocks of streams of different K, zero-padded to
    their width class 8 floor(K/8) + 7, as the regret checks run them."""

    KS = [2, 3, 7, 5, 8, 12, 15, 9, 16, 16]  # all three classes: W = 7, 15 and 23

    @pytest.mark.parametrize("floor", ["small", "active"])
    def test_matches_per_stream_runs(self, steps, floor):
        from driftsched import truncate
        from driftsched.omd import CHUNK, _run_lockstep

        eps, g_scale = {"small": (1e-6, 1.0), "active": (0.02, 60.0)}[floor]
        horizon = 2 * CHUNK + 13  # a last, shorter chunk
        streams = [drifting_stream(7 * b, k, horizon, g_scale) for b, k in enumerate(self.KS)]
        cfgs = [MIXED_SCHEDULES[b % 4] for b in range(len(self.KS))]
        rounds_at_floor = {}  # (W, round) -> the Ks with an iterate on the floor there
        for width in (7, 15, 23):
            members = [b for b, k in enumerate(self.KS) if 8 * (k // 8) + 7 == width]
            ks = np.array([self.KS[b] for b in members])
            n = len(members)
            grads, us = np.zeros((2, n, horizon, width))
            start, alpha = np.zeros((n, width)), np.zeros((n, horizon))
            for j, b in enumerate(members):
                k = ks[j]
                grads[j, :, :k], us[j, :, :k] = streams[b][0], np.array(streams[b][1])
                start[j, :k] = truncate(SimplexVec.uniform(k), eps).probs
                alpha[j, 1:] = np.abs(np.diff(us[j, :, :k], axis=0)).sum(axis=1)
            steps.clear()
            traces = _run_lockstep(lambda t, c: (grads[:, t:t + c], us[:, t:t + c]), alpha,
                                   [cfgs[b] for b in members], eps, start, ks,
                                   np.abs(grads).max(axis=(1, 2)))
            rounds = np.stack(steps)  # (T, n, W): each round's next iterates
            for j, (b, tr) in enumerate(zip(members, traces)):
                steps.clear()
                alone = run_dynamic(*streams[b], cfgs[b], eps)
                for name in alone.columns:
                    assert tr.column(name).tobytes() == alone.column(name).tobytes(), name
                assert tr.meta == alone.meta
                k = ks[j]
                assert rounds[:, j, :k].tobytes() == np.stack(steps)[:, 0].tobytes()
                assert not rounds[:, j, k:].any()  # the pads stay 0
                for t in np.flatnonzero((np.abs(rounds[:, j, :k] - eps) < 1e-15).any(axis=1)):
                    rounds_at_floor.setdefault((width, t), set()).add(int(k))
        if floor == "active":  # one step truncated rows of different K
            assert any(len(floored) > 1 for floored in rounds_at_floor.values())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 32), st.data())
def test_stacked_dot_matches_row_dots_bitwise(n, horizon, k, data):
    # the regret increments rest on this: if a numpy or BLAS release
    # changes the stacked dot's summation order, this fails first
    from driftsched.omd import _row_dots

    elements = st.floats(-1e6, 1e6, allow_subnormal=False)
    a = data.draw(hnp.arrays(np.float64, (n, horizon, k), elements=elements))
    b = data.draw(hnp.arrays(np.float64, (n, horizon + 1, k), elements=elements))[:, :horizon]
    got = _row_dots(a, b)
    want = np.array([[float(a[i, t] @ b[i, t]) for t in range(horizon)] for i in range(n)])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
