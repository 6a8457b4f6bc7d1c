"""Configuration and wire codec for the multi-tenant reuse service.

Two frozen dataclasses mirror the facade's :class:`repro.CompileOptions`
style: :class:`TenantPolicy` is what one tenant is allowed to hold
(program-cache capacity, concurrency, a default
:class:`~repro.runtime.governor.GovernorPolicy` for governed tables) and
:class:`ServiceConfig` is the whole server (bind address, worker pool,
queue bound, timeouts, per-tenant policies).

The wire codec (:func:`compile_options_from_wire`) turns the JSON bodies
of ``POST /v1/compile`` / ``POST /v1/run`` into validated
:class:`repro.CompileOptions` values.  It is strict: unknown keys are a
:class:`~repro.errors.ConfigError` (surfaced as HTTP 400), never ignored
— a typo'd knob must not silently compile under defaults and then share
a content-keyed cache slot with the intended program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Optional

from ..api import CompileOptions
from ..errors import ConfigError
from ..reuse.pipeline import PipelineConfig
from ..runtime.governor import GovernorPolicy

__all__ = [
    "TenantPolicy",
    "ServiceConfig",
    "compile_options_from_wire",
    "governor_from_wire",
    "pipeline_config_from_wire",
]


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant resource and governance policy.

    ``governor`` (when set) becomes the default
    :class:`~repro.runtime.governor.GovernorPolicy` baked into every
    governed table this tenant compiles without an explicit
    ``config.governor`` of its own — the multi-tenant knob of the
    paper's online governor.
    """

    governor: Optional[GovernorPolicy] = None
    max_programs: int = 32
    max_concurrency: int = 8
    # Service-level objectives, accounted per tenant by the server
    # (rolling p99 latency vs target; error budget = tolerated fraction
    # of bad requests — errors or SLO-violating latencies — over the
    # rolling window).  Published as gauges on the shared registry.
    slo_p99_ms: float = 500.0
    slo_error_budget: float = 0.01
    slo_window: int = 512

    def __post_init__(self) -> None:
        if self.max_programs < 1:
            raise ConfigError(f"max_programs must be >= 1, got {self.max_programs}")
        if self.max_concurrency < 1:
            raise ConfigError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.governor is not None and not isinstance(self.governor, GovernorPolicy):
            raise ConfigError(
                f"governor must be a GovernorPolicy, got {type(self.governor).__name__}"
            )
        if self.slo_p99_ms <= 0:
            raise ConfigError(f"slo_p99_ms must be > 0, got {self.slo_p99_ms}")
        if not 0.0 <= self.slo_error_budget <= 1.0:
            raise ConfigError(
                f"slo_error_budget must be in [0, 1], got {self.slo_error_budget}"
            )
        if self.slo_window < 8:
            raise ConfigError(f"slo_window must be >= 8, got {self.slo_window}")


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of :class:`~repro.service.server.ReuseService`.

    ``port=0`` binds an ephemeral port (read it back from
    ``service.port``).
    ``max_pending`` bounds the whole admission queue: a request arriving
    while that many are in flight is rejected with 429 and a
    ``Retry-After`` hint instead of queueing without bound.
    ``request_timeout`` caps one compile-and-run; a request that blows
    it gets 504 (the worker thread finishes in the background — the
    simulator is pure compute with no side effects beyond warming the
    program's own tables).

    ``trace`` selects request tracing: ``"auto"`` traces exactly the
    requests that arrive with a ``traceparent`` header (the client opted
    in), ``"all"`` traces every request, ``"off"`` traces none.
    Assembled span trees are kept in a bounded in-memory store served by
    ``GET /v1/trace/<id>``; ``trace_capacity`` bounds it.
    ``log_capacity`` sizes the structured event-log ring behind
    ``GET /v1/events`` (0 disables the log entirely).
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 0  # 0 -> os.cpu_count()
    max_pending: int = 64
    request_timeout: float = 30.0
    drain_grace: float = 10.0
    retry_after: float = 1.0
    max_body_bytes: int = 8 * 1024 * 1024
    trace: str = "auto"
    trace_capacity: int = 256
    log_capacity: int = 2048
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    tenants: Mapping[str, TenantPolicy] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers}")
        if self.max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.trace not in ("auto", "all", "off"):
            raise ConfigError(
                f"trace must be 'auto', 'all', or 'off', got {self.trace!r}"
            )
        if self.trace_capacity < 1:
            raise ConfigError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )
        if self.log_capacity < 0:
            raise ConfigError(f"log_capacity must be >= 0, got {self.log_capacity}")
        if self.request_timeout <= 0:
            raise ConfigError(
                f"request_timeout must be > 0, got {self.request_timeout}"
            )
        if self.drain_grace < 0:
            raise ConfigError(f"drain_grace must be >= 0, got {self.drain_grace}")
        if self.max_body_bytes < 1024:
            raise ConfigError(
                f"max_body_bytes must be >= 1024, got {self.max_body_bytes}"
            )
        for name, policy in dict(self.tenants).items():
            if not isinstance(policy, TenantPolicy):
                raise ConfigError(
                    f"tenant {name!r} policy must be a TenantPolicy, "
                    f"got {type(policy).__name__}"
                )

    def resolved_workers(self) -> int:
        return self.workers or min(32, (os.cpu_count() or 4) + 2)

    def policy_for(self, tenant: str) -> TenantPolicy:
        return dict(self.tenants).get(tenant, self.default_policy)

    def replace(self, **changes) -> "ServiceConfig":
        return replace(self, **changes)


# -- wire codec ---------------------------------------------------------------


def _check_keys(what: str, payload: dict, allowed) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ConfigError(f"{what} got unexpected key(s): {', '.join(unknown)}")


def governor_from_wire(payload: Optional[dict]) -> Optional[GovernorPolicy]:
    """``{"window": 128, ...}`` → :class:`GovernorPolicy` (None passes
    through).  Field validation is the policy's own ``__post_init__``."""
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ConfigError(f"governor must be an object, got {type(payload).__name__}")
    allowed = tuple(f.name for f in fields(GovernorPolicy))
    _check_keys("governor", payload, allowed)
    return GovernorPolicy(**payload)


def pipeline_config_from_wire(
    payload: Optional[dict], default_governor: Optional[GovernorPolicy] = None
) -> Optional[PipelineConfig]:
    """``{"min_executions": 8, "governor": {...}, ...}`` →
    :class:`PipelineConfig`.  A tenant's default governor applies when
    the request does not carry its own."""
    if payload is None:
        if default_governor is None:
            return None
        return PipelineConfig(governor=default_governor)
    if not isinstance(payload, dict):
        raise ConfigError(f"config must be an object, got {type(payload).__name__}")
    allowed = tuple(f.name for f in fields(PipelineConfig))
    _check_keys("config", payload, allowed)
    kwargs = dict(payload)
    governor = governor_from_wire(kwargs.pop("governor", None))
    if governor is None:
        governor = default_governor
    if governor is not None:
        kwargs["governor"] = governor
    return PipelineConfig(**kwargs)


_WIRE_OPTION_KEYS = (
    "opt",
    "reuse",
    "governed",
    "backend",
    "config",
    "profile_inputs",
)


def compile_options_from_wire(
    payload: Optional[dict], policy: Optional[TenantPolicy] = None
) -> CompileOptions:
    """The ``options`` object of a compile/run request →
    :class:`repro.CompileOptions`.

    Observer knobs (``trace``/``profile``) are deliberately not part of
    the wire surface: they attach process-local objects that cannot be
    serialized back, and the service's differential guarantee is about
    outputs, not traces.
    """
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ConfigError(f"options must be an object, got {type(payload).__name__}")
    _check_keys("options", payload, _WIRE_OPTION_KEYS)
    kwargs = dict(payload)
    default_governor = policy.governor if policy is not None else None
    kwargs["config"] = pipeline_config_from_wire(
        kwargs.get("config"), default_governor
    )
    if kwargs["config"] is None:
        del kwargs["config"]
    if kwargs.get("profile_inputs") is not None and not isinstance(
        kwargs["profile_inputs"], (list, tuple)
    ):
        raise ConfigError("profile_inputs must be a list of numbers")
    return CompileOptions(**kwargs)
