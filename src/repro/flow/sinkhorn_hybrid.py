"""Name-only stub: ``perfbench/tracer.py`` wraps it; delete with that hook (ROADMAP item 10)."""

from repro.exceptions import ValidationError


def solve_transportation_sinkhorn_hybrid(problem, **_options):
    """Refuse: the approximate tier is gone (see ``docs/solvers.md``)."""
    raise ValidationError("the sinkhorn-hybrid tier was removed")
