# eires-fixture: place=backends/__init__.py
"""A backend table row under a name no docs table mentions — R2 must flag
the undocumented backend."""
from repro.backends.reference import ReferenceBackend

BACKENDS = {"undocumented_backend": ReferenceBackend}
