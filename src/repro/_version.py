"""The package version, in one place.

Import-free so any module (including :mod:`repro.obs.report`, which
sits below :mod:`repro` in the import graph) can embed the version
without cycles.  ``pyproject.toml`` reads it via setuptools' dynamic
``attr:`` mechanism; :mod:`repro` re-exports it as
``repro.__version__``.
"""

__version__ = "1.18.0"
