"""Pole-residue compilation of reduced-order models.

A reduced model ``H_n(sigma) = W (I + u T)^{-1} rho`` (with
``u = sigma - sigma0``) is evaluated by the training layer with one
dense ``n x n`` solve per frequency point.  Compilation performs the
eigendecomposition ``T = V diag(lambda) V^{-1}`` **once** and rewrites
the kernel as the matrix partial-fraction sum

``H_n(sigma) = sum_k R_k / (1 + u lambda_k)``,

where each residue ``R_k = (W v_k) (V^{-1} rho)_k`` is a rank-one
``p x p`` matrix.  Evaluation over an ``m``-point batch then reduces to
one ``(m, n) @ (n, p*p)`` matrix product -- ``O(n p^2)`` flops per
point and **zero linear solves**.

Congruence (pencil) models ``Z = Br^T (Gr + sigma Cr)^{-1} Br`` compile
through the same form via the generalized eigenproblem of ``(Cr, Gr)``
(symmetric-definite fast path) or the standard eigenproblem of
``Gr^{-1} Cr``.

Compilation is *verified*: the spectral form is probed against direct
solves at a few points spanning the pole scale, and a defective or
near-defective ``T`` (ill-conditioned eigenvector basis, detected via
``cond(V)`` and the probe residual) makes :func:`CompiledModel.compile`
fall back to per-point direct solves instead of returning a silently
inaccurate model.  Every fallback is recorded as an
``engine.compile`` event on the supplied
:class:`~repro.robustness.health.HealthMonitor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from repro.circuits.mna import TransferMap
from repro.errors import ReductionError

__all__ = ["CompiledModel", "compile_model"]

#: eigenvector-basis condition number beyond which ``T`` is treated as
#: numerically defective and compilation falls back to direct solves
DEFAULT_COND_LIMIT = 1.0e8

#: relative probe-reconstruction error beyond which the spectral form is
#: rejected (the acceptance budget is 1e-10; keep an order of margin)
DEFAULT_PROBE_TOL = 1.0e-11


def _is_symmetric(a: np.ndarray, rtol: float = 1.0e-12) -> bool:
    scale = float(np.abs(a).max()) if a.size else 0.0
    if scale == 0.0:
        return True
    return bool(np.abs(a - a.T).max() <= rtol * scale)


def _probe_points(poles: np.ndarray) -> np.ndarray:
    """Probe offsets ``u`` spanning the model's pole scale.

    ``1 + u lambda`` must stay away from zero, so the probes sit on a
    slightly rotated complex ray rather than the real axis.
    """
    scale = float(np.abs(poles).max()) if poles.size else 0.0
    if scale == 0.0:
        scale = 1.0
    ray = (0.6 + 0.8j) / scale
    return np.array([0.0, 0.03 * ray, ray, 30.0 * ray])


@dataclass
class CompiledModel:
    """A reduced model compiled to pole-residue (partial-fraction) form.

    ``mode`` is ``"spectral"`` for the broadcast-sum fast path and
    ``"direct"`` when compilation fell back to per-point solves (the
    evaluation API is identical either way, so callers never branch).

    Attributes
    ----------
    poles:
        Eigenvalues ``lambda_k`` of ``T`` (kernel denominators are
        ``1 + (sigma - sigma0) lambda_k``).  Kernel-variable pole
        locations follow as ``sigma0 - 1/lambda_k``.
    residues:
        ``(n, p, p)`` complex stack of rank-one residue matrices.
    eig_condition:
        Condition number of the eigenvector basis (1.0 on the
        orthogonal / congruent fast paths).
    probe_error:
        Relative reconstruction error measured at the compile-time
        probe points (``nan`` in direct mode).
    """

    poles: np.ndarray
    residues: np.ndarray
    sigma0: float
    transfer: TransferMap
    port_names: list[str]
    direct_term: np.ndarray | None = None
    mode: str = "spectral"
    eig_condition: float = 1.0
    probe_error: float = float("nan")
    source: object = None
    fallback_reason: str | None = None
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        model,
        *,
        cond_limit: float = DEFAULT_COND_LIMIT,
        probe_tol: float = DEFAULT_PROBE_TOL,
        monitor=None,
    ) -> "CompiledModel":
        """Compile any supported reduced model (dispatch on shape).

        Accepts :class:`~repro.core.model.ReducedOrderModel` (``t`` /
        ``delta`` / ``rho`` triple) and
        :class:`~repro.core.arnoldi.CongruenceModel` (``gr`` / ``cr`` /
        ``br`` pencil); duck-typed so the engine layer stays decoupled
        from the training layer's class hierarchy.
        """
        if hasattr(model, "t") and hasattr(model, "rho"):
            return cls.from_rom(
                model, cond_limit=cond_limit, probe_tol=probe_tol,
                monitor=monitor,
            )
        if hasattr(model, "gr") and hasattr(model, "br"):
            return cls.from_pencil(
                model, cond_limit=cond_limit, probe_tol=probe_tol,
                monitor=monitor,
            )
        if hasattr(model, "poles") and hasattr(model, "residues") and not (
            callable(model.poles)
        ):
            return cls.from_pole_residue(
                model, probe_tol=probe_tol, monitor=monitor
            )
        raise ReductionError(
            f"cannot compile object of type {type(model).__name__}: "
            "expected a ReducedOrderModel, a CongruenceModel or a "
            "FittedModel"
        )

    @classmethod
    def from_rom(
        cls,
        rom,
        *,
        cond_limit: float = DEFAULT_COND_LIMIT,
        probe_tol: float = DEFAULT_PROBE_TOL,
        monitor=None,
    ) -> "CompiledModel":
        """Compile a Lanczos model ``W (I + u T)^{-1} rho`` (eq. 19)."""
        t = np.asarray(rom.t, dtype=float)
        rho = np.asarray(rom.rho, dtype=float)
        w = rom.output.T if rom.output is not None else rom.rho.T @ rom.delta
        direct = None if rom.direct is None else np.asarray(rom.direct)

        if _is_symmetric(t):
            # guaranteed SyMPVL path: T symmetric (PSD after eq.-21
            # cleanup), eigh gives an orthogonal basis -- exact
            eigenvalues, vectors = np.linalg.eigh(t)
            left = w @ vectors
            right = vectors.T @ rho
            condition = 1.0
        else:
            eigenvalues, vectors, condition = cls._general_eig(t)
            if eigenvalues is None or condition > cond_limit:
                return cls._fallback(
                    rom, "defective-T", condition, monitor,
                    sigma0=rom.sigma0, transfer=rom.transfer,
                    port_names=list(rom.port_names), direct=direct,
                )
            left = w @ vectors
            right = np.linalg.solve(vectors, rho)

        residues = np.einsum("pk,kq->kpq", left, right)
        compiled = cls(
            poles=np.asarray(eigenvalues),
            residues=residues,
            sigma0=float(rom.sigma0),
            transfer=rom.transfer,
            port_names=list(rom.port_names),
            direct_term=direct,
            eig_condition=float(condition),
            source=rom,
        )
        return compiled._verify(
            probe_tol, monitor, order=t.shape[0], kind="rom"
        )

    @classmethod
    def from_pencil(
        cls,
        model,
        *,
        cond_limit: float = DEFAULT_COND_LIMIT,
        probe_tol: float = DEFAULT_PROBE_TOL,
        monitor=None,
    ) -> "CompiledModel":
        """Compile a congruence model ``Br^T (Gr + sigma Cr)^{-1} Br``.

        With ``Ghat = Gr + tau Cr`` and ``u = sigma - tau``, the pencil
        factors as ``Ghat (I + u Ghat^{-1} Cr)`` -- the same
        ``1 + u lambda`` denominator form as the Lanczos kernel, with
        ``sigma0 = tau``.  ``tau = 0`` is tried first; when the model
        carries its reduction expansion point in ``metadata["sigma0"]``
        (where the pencil is known well-conditioned, e.g. package
        models with singular ``Gr``) that shift is tried next before
        giving up on the spectral form.
        """
        taus = [0.0]
        meta_tau = getattr(model, "metadata", {}).get("sigma0")
        if meta_tau:
            taus.append(float(meta_tau))
        worst_condition = 0.0
        for tau in taus:
            compiled = cls._pencil_spectral(model, tau, cond_limit)
            if compiled is None:
                worst_condition = float("inf")
                continue
            worst_condition = max(worst_condition, compiled.eig_condition)
            error = compiled._probe_error()
            compiled.probe_error = error
            if np.isfinite(error) and error <= probe_tol:
                if monitor is not None:
                    monitor.record(
                        "engine.compile",
                        mode="spectral",
                        fallback=False,
                        kind="pencil",
                        order=compiled.poles.size,
                        shift=tau,
                        condition=compiled.eig_condition,
                        probe_error=error,
                    )
                return compiled
        return cls._fallback(
            model, "defective-pencil", worst_condition, monitor,
            sigma0=0.0, transfer=model.transfer,
            port_names=list(model.port_names), direct=None,
        )

    @classmethod
    def from_pole_residue(
        cls,
        model,
        *,
        probe_tol: float = DEFAULT_PROBE_TOL,
        monitor=None,
    ) -> "CompiledModel":
        """Compile a model already in pole-residue form (e.g. a
        :class:`repro.fitting.FittedModel`).

        The fitted form ``sum_k R_k / (s - p_k) + D`` maps exactly onto
        the engine's ``sum_k R'_k / (1 + u lambda_k)`` kernel via
        ``lambda_k = -1/p_k`` and ``R'_k = -R_k / p_k`` (``sigma0 = 0``,
        so ``u = sigma = s``) -- no eigendecomposition needed, and the
        usual probe verification still guards the algebra.
        """
        s_poles = np.asarray(model.poles, dtype=complex).ravel()
        residues = np.asarray(model.residues, dtype=complex)
        direct = (
            None if model.direct is None else np.asarray(model.direct)
        )
        if s_poles.size and np.abs(s_poles).min() <= 1e-300:
            return cls._fallback(
                model, "pole-at-origin", 1.0, monitor,
                sigma0=0.0, transfer=model.transfer,
                port_names=list(model.port_names), direct=direct,
            )
        lam = np.zeros(0, dtype=complex) if not s_poles.size else -1.0 / s_poles
        compiled = cls(
            poles=lam,
            residues=residues * lam[:, None, None],
            sigma0=0.0,
            transfer=model.transfer,
            port_names=list(model.port_names),
            direct_term=direct,
            eig_condition=1.0,
            source=model,
        )
        return compiled._verify(
            probe_tol, monitor, order=s_poles.size, kind="pole-residue"
        )

    @classmethod
    def _pencil_spectral(
        cls, model, tau: float, cond_limit: float
    ) -> "CompiledModel | None":
        """Spectral form of the pencil about shift ``tau`` (unverified);
        ``None`` when ``Ghat`` is singular or the basis too ill."""
        gr = np.asarray(model.gr, dtype=float)
        cr = np.asarray(model.cr, dtype=float)
        br = np.asarray(model.br, dtype=float)
        g_hat = gr if tau == 0.0 else gr + tau * cr

        symmetric = _is_symmetric(gr) and _is_symmetric(cr)
        decomposed = False
        if symmetric:
            try:
                # Cr v = lambda Ghat v with V^T Ghat V = I: then
                # (Ghat + u Cr)^{-1} = V (I + u Lambda)^{-1} V^T
                eigenvalues, vectors = scipy.linalg.eigh(cr, g_hat)
                left = br.T @ vectors
                right = vectors.T @ br
                condition = 1.0
                decomposed = True
            except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
                pass
        if not decomposed:
            try:
                a = np.linalg.solve(g_hat, cr)
                g_hat_inv_b = np.linalg.solve(g_hat, br)
            except np.linalg.LinAlgError:
                return None
            eigenvalues, vectors, condition = cls._general_eig(a)
            if eigenvalues is None or condition > cond_limit:
                return None
            left = br.T @ vectors
            right = np.linalg.solve(vectors, g_hat_inv_b)

        residues = np.einsum("pk,kq->kpq", left, right)
        return cls(
            poles=np.asarray(eigenvalues),
            residues=residues,
            sigma0=float(tau),
            transfer=model.transfer,
            port_names=list(model.port_names),
            direct_term=None,
            eig_condition=float(condition),
            source=model,
        )

    @staticmethod
    def _general_eig(a: np.ndarray):
        """Eigendecomposition with basis conditioning; (None, None, inf)
        when the decomposition itself fails."""
        try:
            eigenvalues, vectors = np.linalg.eig(a)
            condition = float(np.linalg.cond(vectors))
        except np.linalg.LinAlgError:
            return None, None, float("inf")
        if not np.isfinite(condition):
            condition = float("inf")
        return eigenvalues, vectors, condition

    @classmethod
    def _fallback(
        cls, model, reason, condition, monitor, *, sigma0, transfer,
        port_names, direct,
    ) -> "CompiledModel":
        if monitor is not None:
            monitor.record(
                "engine.compile",
                mode="direct",
                fallback=True,
                reason=reason,
                condition=condition,
            )
        p = len(port_names)
        return cls(
            poles=np.zeros(0, dtype=complex),
            residues=np.zeros((0, p, p), dtype=complex),
            sigma0=float(sigma0),
            transfer=transfer,
            port_names=list(port_names),
            direct_term=direct,
            mode="direct",
            eig_condition=float(condition),
            source=model,
            fallback_reason=reason,
        )

    def _verify(self, probe_tol, monitor, *, order, kind) -> "CompiledModel":
        """Probe the spectral form against direct solves; demote to
        direct mode when reconstruction misses the accuracy budget."""
        error = self._probe_error()
        self.probe_error = error
        if not np.isfinite(error) or error > probe_tol:
            demoted = type(self)._fallback(
                self.source, "probe-mismatch", self.eig_condition, monitor,
                sigma0=self.sigma0, transfer=self.transfer,
                port_names=self.port_names, direct=self.direct_term,
            )
            demoted.probe_error = error
            return demoted
        if monitor is not None:
            monitor.record(
                "engine.compile",
                mode="spectral",
                fallback=False,
                kind=kind,
                order=order,
                condition=self.eig_condition,
                probe_error=error,
            )
        return self

    def _probe_error(self) -> float:
        """Max relative mismatch spectral-vs-direct at the probe points."""
        if self.source is None:
            return 0.0
        u = _probe_points(self.poles)
        sigma = self.sigma0 + u
        try:
            exact = _direct_kernel(self.source, sigma)
        except Exception:
            return float("inf")
        approx = self.kernel(sigma)
        scale = float(np.abs(exact).max())
        if scale == 0.0:
            return float(np.abs(approx).max())
        return float(np.abs(approx - exact).max() / scale)

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        if self.mode == "direct" and self.source is not None:
            return int(self.source.order)
        return int(self.poles.size)

    @property
    def num_ports(self) -> int:
        return len(self.port_names)

    @property
    def is_spectral(self) -> bool:
        return self.mode == "spectral"

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def kernel(self, sigma: complex | np.ndarray) -> np.ndarray:
        """``H_n(sigma)`` as a broadcast partial-fraction sum.

        Returns ``p x p`` for scalar input, ``(m, p, p)`` for a batch.
        """
        scalar = np.isscalar(sigma) or np.asarray(sigma).ndim == 0
        sigma_arr = np.atleast_1d(np.asarray(sigma)).ravel()
        if self.mode == "direct":
            out = _direct_kernel(self.source, sigma_arr)
        else:
            u = sigma_arr.astype(complex) - self.sigma0
            # (m, n) denominators; poles of the approximant land where
            # 1 + u lambda = 0, evaluation elsewhere is regular
            weights = 1.0 / (1.0 + np.outer(u, self.poles))
            p = self.num_ports
            flat = self.residues.reshape(self.poles.size, p * p)
            out = (weights @ flat).reshape(sigma_arr.size, p, p)
            if self.direct_term is not None:
                out = out + self.direct_term
        return out[0] if scalar else out

    def impedance(self, s: complex | np.ndarray) -> np.ndarray:
        """Physical ``Z_n(s)`` through the :class:`TransferMap` (LC
        ``s**2`` substitution and prefactor), drop-in comparable with
        :func:`repro.simulation.ac.ac_sweep`."""
        scalar = np.isscalar(s) or np.asarray(s).ndim == 0
        s_arr = np.atleast_1d(np.asarray(s)).ravel()
        kernel = self.kernel(self.transfer.sigma(s_arr))
        pref = np.atleast_1d(np.asarray(self.transfer.prefactor(s_arr)))
        if pref.size == 1:
            pref = np.full(s_arr.size, pref.ravel()[0])
        out = kernel * pref[:, None, None]
        return out[0] if scalar else out

    def __call__(self, s: complex | np.ndarray) -> np.ndarray:
        return self.impedance(s)

    def kernel_poles(self) -> np.ndarray:
        """Kernel-variable pole locations ``sigma0 - 1/lambda_k``
        (finite ones; zero eigenvalues carry no pole)."""
        if self.mode == "direct":
            return np.asarray(self.source.kernel_poles())
        scale = float(np.abs(self.poles).max()) if self.poles.size else 0.0
        nonzero = self.poles[np.abs(self.poles) > max(1e-12 * scale, 1e-300)]
        return self.sigma0 - 1.0 / nonzero

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompiledModel(mode={self.mode!r}, order={self.order}, "
            f"ports={self.num_ports}, cond={self.eig_condition:.2e}, "
            f"probe_error={self.probe_error:.2e})"
        )


def _direct_kernel(model, sigma_arr: np.ndarray) -> np.ndarray:
    """Per-point solve evaluation of the *source* model (no compiled
    routing, so direct mode cannot recurse into itself)."""
    direct = getattr(model, "_kernel_direct", None)
    if direct is not None:
        return direct(np.atleast_1d(sigma_arr))
    return np.atleast_1d(np.asarray(model.kernel(np.atleast_1d(sigma_arr))))


def compile_model(model, *, monitor=None, **options) -> CompiledModel:
    """Functional alias for :meth:`CompiledModel.compile`."""
    return CompiledModel.compile(model, monitor=monitor, **options)
