# eires-fixture: place=backends/__init__.py
"""A backend table whose names and aliases are all documented."""
from repro.backends.reference import ReferenceBackend

BACKENDS = {"reference": ReferenceBackend}
BACKEND_ALIASES = {"automaton": "reference"}
