"""One typed configuration object for the whole serving stack.

Before this module, the construction knobs of the SND serving tier were
spread as keyword sprawl across four layers — :class:`~repro.snd.snd.SND`
(``n_clusters`` / ``solver`` / ``seed``), :class:`~repro.snd.engine.SNDEngine`
(``jobs`` / ``max_pending``), :class:`~repro.snd.scheduler.PairScheduler`
(``max_pending`` / ``client_max_pending``), and
:class:`~repro.serve.service.SNDService` (all of the above again) — so
every front (CLI flags, HTTP server, benchmarks) re-spelled the same
plumbing and drifted independently.

:class:`EngineConfig` is the single typed source of truth.  It is a plain
frozen-ish dataclass (fields are mutable for builder convenience, but the
service copies what it needs at construction) with:

* :meth:`EngineConfig.from_mapping` — build from any mapping (parsed CLI
  ``vars(args)``, a JSON body, a config file), ignoring unknown keys by
  default so one mapping can feed several consumers;
* :meth:`EngineConfig.to_dict` — the JSON-ready echo embedded in
  ``SNDService.stats()["config"]`` and benchmark output;
* validation in ``__post_init__`` with the library's
  :class:`~repro.exceptions.ValidationError`, so a bad knob fails at
  configuration time, not on the first solve.

:class:`~repro.serve.service.SNDService` takes its configuration only as
``config=``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

from repro.exceptions import ValidationError
from repro.snd.fast import SOLVER_CHOICES
from repro.snd.scheduler import PRIORITY_WEIGHTS as PRIORITY_CLASSES
from repro.snd.scheduler import resolve_jobs

__all__ = ["EngineConfig", "PRIORITY_CLASSES", "DEFAULT_FLUSH_INTERVAL"]

#: Default seconds between periodic transition-cache flushes of a serving
#: process (``repro-snd serve``).  One-shot CLI commands flush on close.
DEFAULT_FLUSH_INTERVAL = 30.0


@dataclass
class EngineConfig:
    """Typed construction knobs for SND serving, CLI, and engine use.

    Parameters mirror the historical keyword arguments one-to-one; see
    each consumer's docstring for exact semantics.  Grouped by layer:

    SND construction — ``clusters``, ``solver``, ``seed``.

    Engine — ``jobs``, ``memory_budget`` (shared cache budget in bytes,
    applied to each process: the engine's and every pool worker's).

    Scheduler — ``max_pending`` (global backpressure bound;
    ``None`` → library default), ``client_max_pending`` (per-client
    pending quota; ``None`` disables fairness caps).

    Client identity — ``client`` / ``priority``: the identity one-shot
    CLI invocations present to their in-process scheduler (HTTP clients
    present theirs per request via ``X-Client`` / ``X-Priority``).

    Persistence — ``persist_transitions`` (spill the transition cache to
    the store's ``transition_cache`` table and warm it back on start),
    ``flush_interval`` (seconds between periodic server-side flushes).
    """

    clusters: int | None = None
    solver: str = "auto"
    seed: int = 0

    jobs: "int | str | None" = "auto"
    memory_budget: int | None = None

    max_pending: int | None = None
    client_max_pending: int | None = None

    client: str | None = None
    priority: str = "normal"

    persist_transitions: bool = True
    flush_interval: float = field(default=DEFAULT_FLUSH_INTERVAL)

    def __post_init__(self) -> None:
        resolve_jobs(self.jobs)  # 0, "many" and True fail here, not per request
        if self.solver not in SOLVER_CHOICES:
            raise ValidationError(
                f"solver must be one of {list(SOLVER_CHOICES)}, got {self.solver!r}"
            )
        if self.clusters is not None and (
            isinstance(self.clusters, bool)
            or not isinstance(self.clusters, int)
            or self.clusters < 1
        ):
            raise ValidationError(
                f"clusters must be None or an integer >= 1, got {self.clusters!r}"
            )
        if self.priority not in PRIORITY_CLASSES:
            raise ValidationError(
                f"priority must be one of {sorted(PRIORITY_CLASSES)}, "
                f"got {self.priority!r}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise ValidationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.client_max_pending is not None and self.client_max_pending < 1:
            raise ValidationError(
                f"client_max_pending must be >= 1, got {self.client_max_pending}"
            )
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ValidationError(
                f"memory_budget must be >= 1 byte, got {self.memory_budget}"
            )
        if self.flush_interval <= 0:
            raise ValidationError(
                f"flush_interval must be > 0 seconds, got {self.flush_interval}"
            )

    # ------------------------------------------------------------------ #
    # Construction / export
    # ------------------------------------------------------------------ #

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, Any], *, strict: bool = False
    ) -> "EngineConfig":
        """Build a config from any mapping, skipping ``None``-valued keys
        (so ``vars(args)`` with unset CLI flags falls back to defaults).

        Unknown keys are ignored unless *strict* — one parsed-args
        namespace can therefore feed this constructor directly.
        """
        known = set(cls.field_names())
        unknown = set(mapping) - known
        if strict and unknown:
            raise ValidationError(
                f"unknown EngineConfig keys: {sorted(unknown)}"
            )
        kwargs = {
            k: v for k, v in mapping.items() if k in known and v is not None
        }
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """JSON-ready echo of every field (the ``stats()['config']`` and
        benchmark-output surface)."""
        return asdict(self)

    def replace(self, **overrides) -> "EngineConfig":
        """A copy with *overrides* applied (re-validated)."""
        merged = {**self.to_dict(), **overrides}
        return EngineConfig(**merged)

    # ------------------------------------------------------------------ #
    # Per-layer keyword views
    # ------------------------------------------------------------------ #

    def snd_kwargs(self) -> dict:
        """Keywords for :class:`~repro.snd.snd.SND` construction (via
        ``DistanceContext.ensure_snd``)."""
        return {
            "n_clusters": self.clusters,
            "seed": self.seed,
            "solver": self.solver,
        }

    def engine_kwargs(self) -> dict:
        """Keywords for :class:`~repro.snd.engine.SNDEngine` construction
        (``max_pending`` falls back to the library default when unset)."""
        from repro.snd.scheduler import DEFAULT_MAX_PENDING

        return {
            "jobs": self.jobs,
            "max_pending": (
                DEFAULT_MAX_PENDING if self.max_pending is None else self.max_pending
            ),
            "client_max_pending": self.client_max_pending,
        }
