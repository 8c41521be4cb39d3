"""Recovery-policy engine: unit tests per policy plus driver behavior."""

import numpy as np
import pytest

import repro
from repro.core.passivity import clamp_spectrum
from repro.errors import (
    BreakdownError,
    FactorizationError,
    RecoveryExhaustedError,
    ReductionError,
    exit_code_for,
)
from repro.robustness import FaultPlan, robust_reduce
from repro.robustness.recovery import (
    AttemptSpec,
    EngineFallbackPolicy,
    FactorizationFallbackPolicy,
    OrderBackoffPolicy,
    PerturbedRestartPolicy,
    RecoveryContext,
    ShiftRegularizationPolicy,
    default_policies,
)


@pytest.fixture
def rc_system():
    return repro.assemble_mna(repro.rc_ladder(20, port_at_far_end=True))


def make_context(system, order=8, fallback="arnoldi"):
    return RecoveryContext(
        system=system, requested_order=order, fallback=fallback
    )


SPEC = AttemptSpec(engine="sympvl", order=8, shift="auto")


class TestPerturbedRestartPolicy:
    def test_proposes_once_for_breakdown(self, rc_system):
        policy = PerturbedRestartPolicy()
        ctx = make_context(rc_system)
        err = BreakdownError("boom", step=3)
        first = policy.propose(SPEC, err, ctx)
        assert first is not None
        assert first.perturb_seed == 1
        assert first.order == SPEC.order
        # budget spent: second proposal declined
        assert policy.propose(SPEC, err, ctx) is None

    def test_ignores_other_errors(self, rc_system):
        policy = PerturbedRestartPolicy()
        ctx = make_context(rc_system)
        assert policy.propose(SPEC, ReductionError("x"), ctx) is None


class TestShiftRegularizationPolicy:
    def test_ladder_grows_geometrically(self, rc_system):
        policy = ShiftRegularizationPolicy()
        ctx = make_context(rc_system)
        err = FactorizationError("singular")
        spec = SPEC
        shifts = []
        for _ in range(3):
            spec = policy.propose(spec, err, ctx)
            assert spec is not None
            shifts.append(spec.shift)
        assert policy.propose(spec, err, ctx) is None  # budget exhausted
        assert shifts[1] > shifts[0] and shifts[2] > shifts[1]

    def test_matches_wrapped_factor_message(self, rc_system):
        # resolve_shift wraps the FactorizationError in a ReductionError
        policy = ShiftRegularizationPolicy()
        ctx = make_context(rc_system)
        err = ReductionError(
            "could not factor G + sigma0*C for any candidate shift: ..."
        )
        assert policy.propose(SPEC, err, ctx) is not None

    def test_ignores_breakdowns(self, rc_system):
        policy = ShiftRegularizationPolicy()
        ctx = make_context(rc_system)
        assert policy.propose(SPEC, BreakdownError("b"), ctx) is None


class TestOrderBackoffPolicy:
    def test_halves_order(self, rc_system):
        policy = OrderBackoffPolicy()
        ctx = make_context(rc_system)
        out = policy.propose(SPEC, BreakdownError("b"), ctx)
        assert out.order == 4

    def test_caps_at_breakdown_step(self, rc_system):
        # vectors 0..step-1 were built; order <= step avoids the bad step
        policy = OrderBackoffPolicy()
        ctx = make_context(rc_system)
        out = policy.propose(SPEC, BreakdownError("b", step=3), ctx)
        assert out.order == 3

    def test_floors_at_port_count(self, rc_system):
        policy = OrderBackoffPolicy()
        ctx = make_context(rc_system)
        spec = AttemptSpec(engine="sympvl", order=2, shift="auto")
        # rc_ladder with far port has 2 ports: 2 // 2 = 1 < floor
        assert policy.propose(spec, BreakdownError("b"), ctx) is None


class TestEngineFallbackPolicy:
    def test_falls_back_to_arnoldi(self, rc_system):
        policy = EngineFallbackPolicy()
        ctx = make_context(rc_system, order=8, fallback="arnoldi")
        low = AttemptSpec(engine="sympvl", order=2, shift="auto")
        out = policy.propose(low, BreakdownError("b"), ctx)
        assert out.engine == "arnoldi"
        assert out.order == 8  # restarts from the requested order
        assert policy.propose(low, BreakdownError("b"), ctx) is None

    def test_sypvl_upgraded_for_multiport(self, rc_system):
        policy = EngineFallbackPolicy()
        ctx = make_context(rc_system, fallback="sypvl")
        out = policy.propose(SPEC, BreakdownError("b"), ctx)
        assert out.engine == "arnoldi"  # 2 ports: sypvl impossible

    def test_none_disables(self, rc_system):
        policy = EngineFallbackPolicy()
        ctx = make_context(rc_system, fallback="none")
        assert policy.propose(SPEC, BreakdownError("b"), ctx) is None


class TestFactorizationFallbackPolicy:
    def test_walks_ladder_skipping_tried(self, rc_system):
        policy = FactorizationFallbackPolicy()
        ctx = make_context(rc_system)
        err = FactorizationError("could not factor G")
        spec = AttemptSpec(
            engine="sympvl", order=8, shift="auto", factor_method="superlu"
        )
        out = policy.propose(spec, err, ctx)
        assert out is not None
        assert out.policy == "factorization-fallback"
        # superlu is marked tried: the next rung is sparse-cholesky
        assert out.factor_method == "sparse-cholesky"
        again = policy.propose(out, err, ctx)
        assert again.factor_method == "ldlt"

    def test_silent_for_auto_backend(self, rc_system):
        # auto already traverses the facade's internal ladder
        policy = FactorizationFallbackPolicy()
        ctx = make_context(rc_system)
        err = FactorizationError("could not factor G")
        assert policy.propose(SPEC, err, ctx) is None

    def test_ignores_non_factorization_errors(self, rc_system):
        policy = FactorizationFallbackPolicy()
        ctx = make_context(rc_system)
        spec = AttemptSpec(
            engine="sympvl", order=8, shift="auto", factor_method="superlu"
        )
        assert policy.propose(spec, BreakdownError("b"), ctx) is None

    def test_in_default_ladder_before_shift_policy(self):
        names = [p.name for p in default_policies()]
        assert "factorization-fallback" in names
        assert names.index("factorization-fallback") < names.index(
            "regularize-shift"
        )

    def test_driver_recovers_pinned_backend(self):
        # shifted RLC MNA needs 2x2 pivots: the pinned superlu backend
        # fails, sparse-cholesky refuses the indefinite matrix, and the
        # ladder lands on ldlt without moving the expansion shift
        system = repro.assemble_mna(repro.rlc_line(6), "mna")
        result = robust_reduce(system, 6, shift=1e9, factor_method="superlu")
        assert result.report.recovered
        attempts = result.report.attempts
        winner = next(a for a in attempts if a.succeeded)
        assert winner.policy == "factorization-fallback"
        assert winner.factor_method == "ldlt"
        methods = [
            a.factor_method
            for a in attempts
            if a.policy in ("initial", "factorization-fallback")
        ]
        assert methods == ["superlu", "sparse-cholesky", "ldlt"]
        # the shift never moved: the matched expansion point is intact
        assert all(a.shift == "1000000000.0" for a in attempts[:3])

    def test_attempt_dict_carries_factor_method(self):
        system = repro.assemble_mna(repro.rlc_line(6), "mna")
        result = robust_reduce(system, 6, shift=1e9, factor_method="superlu")
        payload = result.report.to_dict()
        assert payload["attempts"][0]["factor_method"] == "superlu"


class TestRobustReduceDriver:
    def test_clean_run_single_attempt(self, rc_system):
        result = robust_reduce(rc_system, 8, shift=1e8)
        assert result.report.recovered is False
        assert len(result.report.attempts) == 1
        assert result.engine == "sympvl"
        assert result.certification.certified
        assert result.health.healthy

    def test_breakdown_recovers_by_order_backoff(self, rc_system):
        plan = FaultPlan.parse("breakdown@4")
        result = robust_reduce(rc_system, 8, shift=1e8, fault_plan=plan)
        assert result.report.recovered
        assert result.report.final_engine == "sympvl"
        assert result.order <= 4
        # attempts: initial fail, perturbed restart fail, backoff success
        policies = [a.policy for a in result.report.attempts]
        assert policies[0] == "initial"
        assert "order-backoff" in policies

    def test_fallback_when_backoff_impossible(self, rc_system):
        # sticky fault at step 0: no Lanczos order clears it
        plan = FaultPlan.parse("breakdown@0")
        result = robust_reduce(rc_system, 8, shift=1e8, fault_plan=plan)
        assert result.engine == "arnoldi"
        assert result.model.order > 0
        # the congruence model still evaluates
        z = result.model.impedance(1j * 1e9)
        assert np.all(np.isfinite(z))

    def test_exhaustion_raises_with_report(self, rc_system):
        plan = FaultPlan.parse("breakdown@0")
        with pytest.raises(RecoveryExhaustedError) as excinfo:
            robust_reduce(
                rc_system, 8, shift=1e8, fault_plan=plan, fallback="none",
                max_retries=2,
            )
        err = excinfo.value
        assert err.report.gave_up
        assert err.report.attempts
        assert isinstance(err.last_error, BreakdownError)
        assert exit_code_for(err) == 3

    def test_max_retries_zero_fails_fast(self, rc_system):
        plan = FaultPlan.parse("breakdown@4")
        with pytest.raises(RecoveryExhaustedError) as excinfo:
            robust_reduce(
                rc_system, 8, shift=1e8, fault_plan=plan, max_retries=0
            )
        assert len(excinfo.value.report.attempts) == 1

    def test_bad_fallback_rejected(self, rc_system):
        with pytest.raises(ReductionError, match="fallback"):
            robust_reduce(rc_system, 8, fallback="quantum")

    def test_diagnostics_json_safe(self, rc_system):
        import json

        plan = FaultPlan.parse("breakdown@4")
        result = robust_reduce(rc_system, 8, shift=1e8, fault_plan=plan)
        payload = result.diagnostics()
        text = json.dumps(payload, allow_nan=False)
        assert "order-backoff" in text

    def test_monitor_context_distinguishes_attempts(self, rc_system):
        plan = FaultPlan.parse("breakdown@4")
        result = robust_reduce(rc_system, 8, shift=1e8, fault_plan=plan)
        attempts = {
            e.context.get("attempt")
            for e in result.health.events
            if e.context
        }
        assert len(attempts) >= 2


class TestClampSpectrum:
    def test_clamps_negative_eigenvalue(self, rc_system):
        model = repro.sympvl(rc_system, 6, shift=1e8)
        t_bad = model.t.copy()
        # plant a small negative eigenvalue
        eigenvalues, vectors = np.linalg.eigh(t_bad)
        # certify's PSD tolerance is absolute (tol * max(1, |T|)), so the
        # planted eigenvalue must be clearly below -1e-8
        eigenvalues[0] = -1e-6
        t_bad = (vectors * eigenvalues) @ vectors.T
        bad = repro.ReducedOrderModel(
            t=t_bad, delta=model.delta, rho=model.rho, sigma0=model.sigma0,
            transfer=model.transfer, port_names=model.port_names,
            source_size=model.source_size,
            guaranteed_stable_passive=False,
            factorization_method=model.factorization_method,
        )
        assert not repro.certify(bad).certified
        fixed = clamp_spectrum(bad)
        assert repro.certify(fixed).certified
        assert fixed.metadata["spectrum_clamped"] > 0.0

    def test_noop_on_certified_model(self, rc_system):
        model = repro.sympvl(rc_system, 6, shift=1e8)
        fixed = clamp_spectrum(model)
        np.testing.assert_allclose(fixed.t, model.t, atol=1e-12)
