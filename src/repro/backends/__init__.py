"""Evaluation backends: pluggable engines behind the :class:`EvalBackend` interface.

The registry is one module-level table, :data:`BACKENDS`, shaped like the
shedding-policy table (:data:`repro.shedding.policy.SHED_POLICIES`): canonical
name to implementation, plus :data:`BACKEND_ALIASES` for alternate
spellings.  Lookups go through :func:`resolve_backend` / :func:`get_backend`,
and unknown names fail with the full catalogue.  Adding a backend means one
row here and one row in ``docs/backends.md`` (analysis rule R2 checks the
second).

Only :mod:`repro.runtime` (the composition root) and this package may call
:func:`get_backend` — analysis rule A6 enforces it — so which engine
evaluates a query is decided in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.base import BackendCapabilities, BackendCapabilityError, EvalBackend
from repro.backends.reference import ReferenceBackend
from repro.backends.tree import TreeBackend

__all__ = [
    "BACKENDS",
    "BACKEND_ALIASES",
    "BackendCapabilities",
    "BackendCapabilityError",
    "BackendListing",
    "EvalBackend",
    "ReferenceBackend",
    "TreeBackend",
    "get_backend",
    "list_backends",
    "resolve_backend",
]

BACKENDS: dict[str, type[EvalBackend]] = {
    "reference": ReferenceBackend,
    "tree": TreeBackend,
}

#: Alternate name -> canonical name.
BACKEND_ALIASES = {"automaton": "reference"}


@dataclass(frozen=True)
class BackendListing:
    """One row of :func:`list_backends` — registry metadata, no classes."""

    name: str
    aliases: tuple[str, ...]
    capabilities: BackendCapabilities
    description: str


def resolve_backend(name: str) -> str:
    """The canonical name for ``name``; ``ValueError`` for unknown names."""
    canonical = BACKEND_ALIASES.get(name, name)
    if canonical in BACKENDS:
        return canonical
    catalogue = ", ".join(sorted(BACKENDS))
    raise ValueError(f"unknown backend {name!r}; registered backends: {catalogue}")


def get_backend(name: str) -> type[EvalBackend]:
    """The backend class for ``name`` (composition-root entry point, A6)."""
    return BACKENDS[resolve_backend(name)]


def list_backends() -> list[BackendListing]:
    """Every registered backend as a metadata row, sorted by name."""
    return [
        BackendListing(
            name=name,
            aliases=tuple(sorted(
                alias for alias, target in BACKEND_ALIASES.items() if target == name
            )),
            capabilities=cls.capabilities,
            description=cls.description,
        )
        for name, cls in sorted(BACKENDS.items())
    ]
