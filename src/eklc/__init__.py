"""EKL compiler and reference runner."""

from __future__ import annotations

__version__ = "0.1.0"

# Importing the package registers the ekl dialect, so IR parsed from text
# verifies without an import of `eklc.ops` first.
from . import ops  # noqa: E402,F401
