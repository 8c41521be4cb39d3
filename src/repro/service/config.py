"""Service configuration: every resilience knob in one dataclass.

The defaults are tuned for an interactive localhost server; the
``repro serve`` CLI maps its flags onto these fields and tests override
them directly.  All time quantities are seconds unless the name says
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RetryConfig", "BreakerConfig", "ServiceConfig"]


@dataclass(frozen=True)
class RetryConfig:
    """Bounded retry with exponential backoff and deterministic jitter.

    Delay before attempt ``k`` (1-based retry index) is::

        min(base * multiplier**(k-1), max_delay) * (1 + jitter * u_k)

    where ``u_k`` in ``[-1, 1]`` is drawn from a PRNG seeded by
    ``(seed, request key)`` -- identical requests back off identically
    across runs, distinct requests decorrelate (no thundering herd).
    """

    attempts: int = 3          # total tries, including the first
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.1        # +-10% deterministic jitter
    seed: int = 0


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit breaker around the process-pool sweep tier."""

    fail_threshold: int = 3     # consecutive failures that open the breaker
    cooldown: float = 0.05      # open -> half-open delay
    probe_successes: int = 1    # half-open successes that close it


@dataclass
class ServiceConfig:
    """Knobs for one :class:`~repro.service.runtime.MacromodelService`."""

    # admission ---------------------------------------------------------
    max_pending: int = 64       # queued + running; beyond this -> shed
    max_concurrency: int = 4    # simultaneously *running* requests
    default_deadline: float = 30.0   # per-request wall budget (seconds)
    # engine ------------------------------------------------------------
    cache_dir: str | None = None
    cache_entries: int = 64
    cache_max_bytes: int | None = None
    cache_ttl: float | None = None
    workers: int | None = None  # process-pool width for exact sweeps
    # resilience --------------------------------------------------------
    retry: RetryConfig = field(default_factory=RetryConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    robust_reductions: bool = True   # retry failed reductions via the
    #                                  robust_reduce recovery ladder
    # sweep ladder ------------------------------------------------------
    serial_chunk: int = 256     # grid chunk for the chunked-serial tier
    # payload guard: points * ports^2 complex values per sweep response
    max_response_values: int = 2_000_000
    # micro-batching ----------------------------------------------------
    # compiled sweeps sharing one model fingerprint are held up to this
    # window (milliseconds) and merged into one broadcast evaluation;
    # 0 disables batching (every request dispatches immediately)
    batch_window_ms: float = 2.0
    batch_max_size: int = 16    # requests per batch before an early flush
    # limits ------------------------------------------------------------
    max_netlist_bytes: int = 4_000_000
    max_points: int = 200_000
    max_order: int = 2_000

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.default_deadline <= 0:
            raise ValueError("default_deadline must be > 0")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if self.batch_max_size < 1:
            raise ValueError("batch_max_size must be >= 1")
