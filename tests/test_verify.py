import collections
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verify_reference
from driftsched import CheckReport, SamplerFailure, check_identity, check_inequality, run_suite

EXPECTED_CHECKS = {
    "entropy_range",
    "entropy_grad_bound",
    "bregman_equals_kl",
    "pinsker_strong_convexity",
    "lse_lipschitz",
    "softmax_drift",
    "softmax_jacobian_tightness",
    "prefix_sum_potential",
    "prefix_average_growth",
    "clip_compensation",
    "offline_lambda_minimizer",
    "soft_backup_contraction",
    "operator_drift_bound",
    "fixed_point_sensitivity",
    "q_value_bounds",
    "squared_drift_conversion",
    "surrogate_gap_range",
    "occupancy_mismatch_bound",
    "occupancy_policy_sensitivity",
    "fenchel_young_gap",
    "performance_difference",
    "coupled_tradeoff_regret_bound",
    "online_schedule_regret_bound",
    "oracle_schedule_bound",
}


class TestCheckPrimitives:
    def test_identity_pass(self):
        r = check_identity("sq", lambda x: x * x, lambda x: x ** 2,
                           lambda rng: float(rng.uniform(-5, 5)), n=50, tol=0.0)
        assert r.passed and r.samples == 50

    def test_identity_fail_records_worst(self):
        r = check_identity("off_by_one", lambda x: x + 1.0, lambda x: x,
                           lambda rng: float(rng.uniform()), n=10, tol=0.5)
        assert not r.passed
        assert r.max_violation == pytest.approx(1.0)
        assert r.worst_case != ""

    def test_inequality_direction(self):
        r = check_inequality("le", lambda x: x, lambda x: x + 0.1,
                             lambda rng: float(rng.uniform()), n=20, tol=0.0)
        assert r.passed
        r = check_inequality("gt", lambda x: x + 0.1, lambda x: x,
                             lambda rng: float(rng.uniform()), n=20, tol=0.05)
        assert not r.passed

    def test_sampler_failure(self):
        def broken(rng):
            raise RuntimeError("boom")

        with pytest.raises(SamplerFailure):
            check_identity("x", lambda s: 0.0, lambda s: 0.0, broken, n=5, tol=0.0)

    def test_report_passed_derived(self):
        r = CheckReport(name="a", samples=1, max_violation=0.2, tolerance=0.1)
        assert not r.passed
        r = CheckReport(name="a", samples=1, max_violation=0.1, tolerance=0.1)
        assert r.passed

    def test_report_serializes(self):
        r = CheckReport(name="a", samples=3, max_violation=-1.0, tolerance=0.0,
                        worst_case="(1, 2)")
        doc = json.loads(json.dumps(r.to_dict()))
        assert doc["passed"] is True and doc["name"] == "a"


@pytest.fixture(scope="module")
def reports():
    return run_suite(seed=0)


class TestSuite:
    def test_all_pass(self, reports):
        failing = [r.name for r in reports if not r.passed]
        assert failing == []

    def test_full_coverage(self, reports):
        assert {r.name for r in reports} == EXPECTED_CHECKS

    def test_sample_counts(self, reports):
        by_name = {r.name: r for r in reports}
        assert by_name["bregman_equals_kl"].samples == 1000
        assert by_name["fenchel_young_gap"].samples == 1000
        assert by_name["performance_difference"].samples == 200
        for name in ("lse_lipschitz", "softmax_drift", "pinsker_strong_convexity",
                     "fixed_point_sensitivity", "occupancy_mismatch_bound",
                     "occupancy_policy_sensitivity", "soft_backup_contraction",
                     "operator_drift_bound", "prefix_sum_potential",
                     "prefix_average_growth", "clip_compensation",
                     "squared_drift_conversion", "surrogate_gap_range",
                     "q_value_bounds", "entropy_range", "entropy_grad_bound"):
            assert by_name[name].samples >= 1000, name

    def test_deterministic_in_seed(self, reports):
        again = run_suite(seed=0)
        for a, b in zip(reports, again):
            assert a.name == b.name
            assert a.max_violation == b.max_violation
            assert a.worst_case == b.worst_case
        other = run_suite(seed=1)
        assert any(a.max_violation != b.max_violation
                   for a, b in zip(reports, other))

    def test_mutation_fails_exactly_the_tradeoff_check(self, reports):
        mutated = run_suite(seed=0, tradeoff_c2_factor=0.5)
        failing = [r.name for r in mutated if not r.passed]
        assert failing == ["coupled_tradeoff_regret_bound"]


class TestWorstSample:
    """The one loop every report goes through picks its worst sample."""

    def test_first_of_tied_maxima(self):
        from driftsched.verify import _excess, _worst

        r = _worst("t", ["a", "b", "c", "d"], [1.0, 3.0, 2.0, 3.0], [0.0] * 4, 0.0, _excess)
        assert r.max_violation == 3.0 and r.worst_case == "'b'" and r.samples == 4

    def test_nan_counts_as_inf(self):
        from driftsched.verify import _excess, _worst

        nan = float("nan")
        r = _worst("t", ["a", "b", "c"], [-1.0, nan, np.inf], [0.0, 0.0, 0.0], 0.0, _excess)
        assert r.max_violation == np.inf and r.worst_case == "'b'" and not r.passed
        r = _worst("t", ["a", "b"], np.array([1.0, 1.0]), np.array([0.5, nan]), 0.0, _excess)
        assert r.max_violation == np.inf and r.worst_case == "'b'" and not r.passed

    def test_all_nan(self):
        from driftsched.verify import _excess, _worst

        nan = float("nan")
        r = _worst("t", ["a", "b"], [nan, nan], [0.0, nan], 0.0, _excess)
        assert r.max_violation == np.inf and r.worst_case == "'a'" and not r.passed

    def test_worst_case_described_from_the_sample(self):
        from driftsched.verify import _excess, _worst

        r = _worst("t", [(1, 2), (3, 4)], [0.0, 1.0], [0.0, 0.0], 0.0, _excess,
                   describe=lambda s: s[0] + s[1])
        assert r.worst_case == "7"

    def test_identity_records_absolute_gap(self):
        from driftsched.verify import _gap, _worst

        r = _worst("t", ["a", "b"], [1.0, 0.0], [0.5, 2.5], 1.0, _gap)
        assert r.max_violation == 2.5 and r.worst_case == "'b'" and not r.passed
        r = check_identity("below", lambda x: -x, lambda x: 0.0, lambda rng: 1.5, n=3, tol=0.0)
        assert r.max_violation == 1.5 and r.worst_case == "1.5" and not r.passed


STACKED_SEEDS = (0, 1, 3, 7, 4242)


class TestStackedChecks:
    """Checks that draw their samples in order and evaluate them in one
    stacked call per kernel report what their per-sample forms report."""

    @pytest.mark.parametrize("seed", STACKED_SEEDS)
    @pytest.mark.parametrize("check", verify_reference.STACKED_CHECKS)
    def test_matches_per_sample_reference(self, check, seed):
        from driftsched import verify

        ours = getattr(verify, check)(seed)
        ref = getattr(verify_reference, check)(seed)
        assert ours.to_dict() == ref.to_dict()
        assert_same_report(ours, ref)

    @pytest.mark.parametrize("seed,n_sequences,steps", [
        (0, 1, 3), (1, 3, 4), (3, 7, 5), (7, 10, 12), (4242, 6, 20), (2, 13, 7)])
    def test_squared_drift_one_chain_per_sequence(self, seed, n_sequences, steps):
        # one chained solve of all sequences reports what a solve per sequence does
        from driftsched.verify import _check_squared_drift_conversion

        ours = _check_squared_drift_conversion(seed, n_sequences, steps)
        ref = verify_reference._check_squared_drift_conversion(seed, n_sequences, steps)
        assert_same_report(ours, ref)
        assert ours.samples == n_sequences * (steps - 1)

    def test_softmax_drift_checks_rows_on_the_simplex(self, monkeypatch):
        from driftsched import verify

        def off_simplex(x):
            e = np.exp(x - x.max(axis=-1, keepdims=True))
            return np.where(e == 1.0, -1e-9, e)  # a negative entry survives the renormalization

        monkeypatch.setattr(verify, "_row_softmax", off_simplex)
        with pytest.raises(ValueError, match="floor"):
            verify._check_softmax_drift(0, n=5)


# SHA-256 of `driftsched verify --seed N --json` stdout, measured before the
# per-vector and soft-backup checks were stacked (numpy 2.4.6, Python 3.11.7)
GOLDEN_DIGESTS = {
    0: "c773e7aa143889e6d6cbb330b4e37a5ab5533f61ca240a03f46ef9e79b349995",
    1: "24df566b65e613317e7d7a8200395a4b4879b17e7659e396731673e60e4446d9",
    3: "d8fb72388cb524d599e40b1908fa7444f52dc8f32d10e072ac961d68dc1de3fd",
    7: "651e3186e5920cfff2989b903ca762f3869406128366c31f834bc788207ba1cc",
    4242: "6f699ea9f75c9388b4c9d04f9af8defbb29e90b77dba04b9c7c25e257d83ce08",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_verify_json_keeps_its_bytes(seed, capsys):
    import hashlib

    from driftsched.cli import main

    assert main(["verify", "--seed", str(seed), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[seed]


class TestStackValidation:
    """Each soft-MDP check applies TabularMdp's rules once to its stack of draws."""

    @pytest.mark.parametrize("check", [
        "_check_soft_backup_contraction", "_check_operator_drift",
        "_check_fixed_point_sensitivity", "_check_occupancy_policy_sensitivity",
        "_check_performance_difference",
    ])
    def test_a_bad_draw_is_refused(self, check, monkeypatch):
        from driftsched import verify

        draw = verify._mdp_draw

        def off_simplex(rng, s, a):
            rewards, transitions = draw(rng, s, a)
            return rewards, transitions * 1.001

        monkeypatch.setattr(verify, "_mdp_draw", off_simplex)
        with pytest.raises(ValueError, match="each transition row must sum to 1"):
            getattr(verify, check)(0, n=5)

    def test_occupancy_mismatch_refuses_a_bad_draw(self, monkeypatch):
        from driftsched import verify

        batch = verify._random_mdp_batch

        def out_of_range(*args):
            rewards, transitions = batch(*args)
            return 2.0 * rewards, transitions

        monkeypatch.setattr(verify, "_random_mdp_batch", out_of_range)
        with pytest.raises(ValueError, match="exceed r_max"):
            verify._check_occupancy_mismatch_bound(0, n=5)


class TestStreamDrawOrder:
    @pytest.mark.parametrize("seed,k", [(0, 2), (1, 9), (2, 16)])
    def test_one_draw_equals_per_round_draws(self, seed, k):
        from driftsched.verify import _comparators, _piecewise_stream

        horizon, g_bound = 300, 1.0
        rng = np.random.default_rng(seed)
        grads, times, points = _piecewise_stream(rng, k, horizon, g_bound)
        comparators = _comparators(times, points, np.arange(1, horizon + 1))

        # T draws of K, then the switch times and comparators drawn after them
        ref = np.random.default_rng(seed)
        per_round = np.array([ref.uniform(-g_bound, g_bound, k) for _ in range(horizon)])
        n_switch = int(ref.integers(1, 6))
        times = list(np.sort(ref.choice(np.arange(2, horizon + 1), size=n_switch,
                                        replace=False)))
        u = ref.dirichlet(np.ones(k))
        us = []
        for t in range(1, horizon + 1):
            if times and t == times[0]:
                u = ref.dirichlet(np.ones(k))
                times.pop(0)
            us.append(u)

        assert np.array_equal(grads, per_round)
        assert np.array_equal(comparators, np.array(us))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed,k", [(0, 2), (1, 9), (2, 16)])
    def test_chunks_rebuild_the_stream(self, seed, k):
        # the regret checks redraw a stream's gradient rows from a copy of rng c
        # rows at a time, and rebuild its comparators from the switches
        from driftsched.omd import CHUNK as c
        from driftsched.verify import _comparators, _gradient_rows, _piecewise_stream

        horizon = 300
        assert horizon % c  # a last, shorter chunk
        rng = np.random.default_rng(seed)
        snapshot = np.random.default_rng(seed)
        grads, times, points = _piecewise_stream(rng, k, horizon)
        chunks = [(t, min(c, horizon - t)) for t in range(0, horizon, c)]
        rows = np.vstack([_gradient_rows(snapshot, n, k) for _, n in chunks])
        assert rows.tobytes() == grads.tobytes()
        comparators = _comparators(times, points, np.arange(1, horizon + 1))
        rebuilt = np.vstack([_comparators(times, points, np.arange(t + 1, t + n + 1))
                             for t, n in chunks])
        assert rebuilt.tobytes() == comparators.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_switches_rebuild_the_drift(self, seed):
        # a class block schedules on the drift column run_dynamic_many takes
        # from the comparators' diff rows
        from driftsched import ScheduleConfig
        from driftsched.verify import (_comparators, _draw_streams, _per_stream,
                                       _piecewise_stream, _Stream)

        def alphas(k, g_bound, rows, times, points):
            return _Stream(k, rows, g_bound, times, points, horizon, 1e-6,
                           ScheduleConfig(mode="fixed"), lambda tr: tr.column("alpha"))

        horizon, rng = 300, np.random.default_rng(seed)
        k = int(rng.integers(2, 17))  # _draw_streams draws K, then the stream
        _, times, points = _piecewise_stream(rng, k, horizon)
        comparators = _comparators(times, points, np.arange(1, horizon + 1))
        want = np.concatenate(([0.0], np.abs(np.diff(comparators, axis=0)).sum(axis=1)))
        [alpha] = _per_stream([alphas(*drawn) for drawn in _draw_streams(
            np.random.default_rng(seed), 1, horizon)])
        assert alpha.tobytes() == want.tobytes()
        assert np.count_nonzero(alpha) == len(times)


class TestDrawIdentities:
    """The samplers' draws have the bits of numpy's per-call draws and leave the
    generator in the same state. These fail first if numpy changes
    Generator.dirichlet or Generator.uniform."""

    @staticmethod
    def twins(seed):
        return np.random.default_rng(seed), np.random.default_rng(seed)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), k=st.integers(1, 40),
           dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)),
           form=st.sampled_from(["()", "n", "(2,)", "(n, m)", "(n, s, a)"]),
           around=st.booleans())
    def test_unit_dirichlet(self, seed, k, dims, form, around):
        # around: an integers draw before and after, which uses half a 64-bit word
        # and buffers the other half
        from driftsched.softmdp import _unit_dirichlet

        n, m, a = dims
        size = {"()": (), "n": n, "(2,)": (2,), "(n, m)": (n, m), "(n, s, a)": (n, m, a)}[form]
        ours, ref = self.twins(seed)
        if around:
            assert ours.integers(2, 9) == ref.integers(2, 9)
        got = _unit_dirichlet(ours, k, size)
        want = ref.dirichlet(np.ones(k), size=size if size != () else None)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if around:
            assert ours.integers(2, 33) == ref.integers(2, 33)
        assert ours.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), lo=st.floats(-1e3, 1e3),
           width=st.floats(0.0, 1e3), k=st.integers(2, 32))
    def test_scalar_uniform(self, seed, lo, width, k):
        from driftsched.verify import _uniform

        ours, ref = self.twins(seed)
        for low, high in ((lo, lo + width), (1e-6, 1.0 / k), (0.05, 5.0), (0.0, 1.0)):
            got, want = _uniform(ours, low, high), float(ref.uniform(low, high))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        low = _uniform(ours, 0.01, 1.0)  # a dependent bound, as clip_compensation draws it
        assert _uniform(ours, low, 10.0) == float(ref.uniform(float(ref.uniform(0.01, 1.0)), 10.0))
        assert ours.integers(2, 9) == ref.integers(2, 9)
        assert ours.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), k=st.integers(1, 16), s=st.integers(1, 6),
           scale=st.floats(0.1, 100.0))
    def test_merged_pairs(self, seed, k, s, scale):
        # one (2, ...) call in place of two like draws in a row
        from driftsched.softmdp import _unit_dirichlet

        ours, ref = self.twins(seed)
        merged = [_unit_dirichlet(ours, k, (2,)), _unit_dirichlet(ours, k, (2, s)),
                  ours.uniform(-10, 10, (2, k)), ours.uniform(-scale, scale, size=(2, s, k))]
        pairs = [[ref.dirichlet(np.ones(k)) for _ in range(2)],
                 [ref.dirichlet(np.ones(k), size=s) for _ in range(2)],
                 [ref.uniform(-10, 10, k) for _ in range(2)],
                 [ref.uniform(-scale, scale, size=(s, k)) for _ in range(2)]]
        for got, want in zip(merged, pairs):
            assert got.tobytes() == np.stack(want).tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacked_mix_keeps_each_pairs_bits(self, seed):
        from driftsched.verify import _pair_stack, _perturbed_pair

        rng = np.random.default_rng(seed)
        pairs = [_perturbed_pair(rng) for _ in range(20)]
        rewards, transitions = _pair_stack(pairs)
        want = [np.stack(x) for x in zip(*(
            (r1, p1, (1 - w) * r1 + w * r_alt, (1 - w) * p1 + w * p_alt)
            for r1, p1, r_alt, p_alt, w in pairs))]
        assert rewards.tobytes() == np.concatenate(want[0::2]).tobytes()
        assert transitions.tobytes() == np.concatenate(want[1::2]).tobytes()


def test_suite_generator_calls(monkeypatch):
    # run_suite(7) made 79,531 generator calls, 20,278 of them dirichlet, when
    # every draw was its own call
    from driftsched import verify

    counts = collections.Counter()

    class Counting:
        def __init__(self, rng):
            self.bit_generator = rng.bit_generator  # _per_stream copies its state
            self.rng = rng

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)

            return counted

    seeded = verify._rng
    monkeypatch.setattr(verify, "_rng", lambda seed, tag: Counting(seeded(seed, tag)))
    assert all(r.passed for r in verify.run_suite(7))
    assert counts["dirichlet"] == 0
    assert sum(counts.values()) <= 69_908


def reference_tradeoff_reports(seed, n_streams, horizon, c2_factor=1.0):
    """The trade-off check as a per-stream loop: each stream drawn, then run
    alone through run_dynamic."""
    import math

    from driftsched import ExplicitConstants, ScheduleConfig, bound_rhs, proxy_bound_rhs
    from driftsched import run_dynamic
    from driftsched.verify import (_check_samples, _comparators, _piecewise_stream, _rng,
                                   _tight_tradeoff_instance)

    rng = _rng(seed, "tradeoff_streams")
    online_cfg = ScheduleConfig(c1=1.0, c2=1.0, c=1.0, lambda_min=0.05,
                                lambda_max=1.0, ema_beta=0.0, mode="online")
    tradeoff, online = [], []
    for i in range(n_streams + 1):
        if i < n_streams:
            k = int(rng.integers(2, 17))
            grads, times, points = _piecewise_stream(rng, k, horizon)
            comparators = _comparators(times, points, np.arange(1, horizon + 1))
            cfg, eps = online_cfg, 1e-6
        else:
            k = 2
            grads, comparators, cfg, eps = _tight_tradeoff_instance(horizon)
        trace = run_dynamic(grads, comparators, cfg, eps)
        consts = ExplicitConstants.derive_from_trace(trace)
        scaled = ExplicitConstants(
            c0=math.log(k) / (cfg.c * cfg.lambda_min)
            + c2_factor * consts.c2 * trace.meta["lambda1"],
            c1=consts.c1, c2=c2_factor * consts.c2,
        )
        measured = float(trace.column("regret_cum")[-1])
        tradeoff.append((measured, bound_rhs(trace, scaled), k))
        if i < n_streams:
            online.append((measured, proxy_bound_rhs(trace, consts, k), k))
    return (_check_samples("coupled_tradeoff_regret_bound", tradeoff, tol=1e-8),
            _check_samples("online_schedule_regret_bound", online, tol=1e-8))


def reference_oracle_report(seed, n_streams, horizon):
    """The oracle-schedule check as a per-stream loop through run_dynamic."""
    import math
    from dataclasses import replace

    from driftsched import ExplicitConstants, ScheduleConfig, run_dynamic
    from driftsched.verify import _check_samples, _comparators, _piecewise_stream, _rng

    rng = _rng(seed, "oracle_streams")
    eps = 1e-6
    cfg = ScheduleConfig(c1=1.0, c2=1.0, c=1.0, lambda_min=0.05,
                         lambda_max=1.0, mode="oracle")
    samples = []
    for _ in range(n_streams):
        k = int(rng.integers(2, 17))
        grads, times, points = _piecewise_stream(rng, k, horizon)
        comparators = _comparators(times, points, np.arange(1, horizon + 1))
        consts = ExplicitConstants.derive(cfg, float(np.abs(grads).max()), k, eps,
                                          lambda1=0.0)
        trace = run_dynamic(grads, comparators, replace(cfg, c1=consts.c1, c2=consts.c2),
                            eps)
        rhs = consts.c0 + 2.0 * math.sqrt(consts.c1 * consts.c2) * float(
            np.sqrt(trace.column("alpha")[1:]).sum())
        samples.append((float(trace.column("regret_cum")[-1]), rhs, k))
    return _check_samples("oracle_schedule_bound", samples, tol=1e-8)


def assert_same_report(ours, ref):
    assert ours == ref
    assert ours.max_violation.hex() == ref.max_violation.hex()
    assert ours.worst_case == ref.worst_case and ours.samples == ref.samples


class TestLockstepRegretChecks:
    """The regret checks run their streams one width class at a time and still
    report what a per-stream loop reports."""

    @pytest.mark.parametrize("seed,c2_factor", [(0, 1.0), (1, 1.0), (2, 1.0), (0, 0.5)])
    def test_tradeoff_matches_per_stream_loop(self, seed, c2_factor):
        from driftsched.verify import _check_tradeoff_bounds

        ours = _check_tradeoff_bounds(seed, n_streams=40, horizon=120, c2_factor=c2_factor)
        ref = reference_tradeoff_reports(seed, 40, 120, c2_factor)
        for a, b in zip(ours, ref):
            assert_same_report(a, b)
        assert ours[0].samples == 41 and ours[1].samples == 40

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_matches_per_stream_loop(self, seed):
        from driftsched.verify import _check_oracle_schedule_bound

        ours = _check_oracle_schedule_bound(seed, n_streams=40, horizon=120)
        assert_same_report(ours, reference_oracle_report(seed, 40, 120))
        assert ours.samples == 40

    @pytest.mark.parametrize("check", ["tradeoff", "oracle"])
    def test_every_width_class_runs(self, check, monkeypatch):
        # K = 16 is the one K of the widest class, W = 23
        from driftsched import verify

        blocks, real = [], verify._run_lockstep

        def recorded(rows, alpha, cfgs, eps, start, ks, *rest):
            blocks.append((start.shape[1], sorted(ks.tolist())))
            return real(rows, alpha, cfgs, eps, start, ks, *rest)

        monkeypatch.setattr(verify, "_run_lockstep", recorded)
        seed, n, horizon = 5, 30, 90
        if check == "tradeoff":
            ours = verify._check_tradeoff_bounds(seed, n_streams=n, horizon=horizon)
            refs = reference_tradeoff_reports(seed, n, horizon)
        else:
            ours = [verify._check_oracle_schedule_bound(seed, n_streams=n, horizon=horizon)]
            refs = [reference_oracle_report(seed, n, horizon)]
        for a, b in zip(ours, refs):
            assert_same_report(a, b)
        assert sorted(w for w, _ in blocks) == [7, 15, 23]
        assert all(8 * (k // 8) + 7 == w for w, ks in blocks for k in ks)
        assert 16 in dict(blocks)[23] and sum(len(ks) for _, ks in blocks) == n

    def test_tradeoff_holds_one_group_at_a_time(self):
        # gradients, comparators and iterates of all 100 streams at once
        # come to 21 MB on seed 0; one width class at a time, with its rows
        # read CHUNK rounds at a time, stays under 6 MB
        import tracemalloc

        from driftsched.verify import _check_tradeoff_bounds

        tracemalloc.start()
        try:
            _check_tradeoff_bounds(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20

    def test_oracle_holds_one_class_at_a_time(self):
        import tracemalloc

        from driftsched.verify import _check_oracle_schedule_bound

        tracemalloc.start()
        try:
            _check_oracle_schedule_bound(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20

    def test_suite_runs_every_stream_in_one_pass(self, monkeypatch):
        # the 100 trade-off streams, the tight stream and the 50 oracle streams run
        # as one block per width class of 1000 rounds; one check at a time, they took
        # 3 * 1000 + 1000 + 3 * 500 = 5,500 mirror rounds
        from driftsched import omd, verify

        calls, real = [], omd._mirror_step
        monkeypatch.setattr(omd, "_mirror_step", lambda *a: calls.append(1) or real(*a))
        reports = verify.run_suite(7)
        assert len(calls) == 3000
        monkeypatch.undo()
        alone = (*verify._check_tradeoff_bounds(7), verify._check_oracle_schedule_bound(7))
        for ours, ref in zip(reports[-3:], alone, strict=True):
            assert_same_report(ours, ref)
