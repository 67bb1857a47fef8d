"""Settings shared by every test module."""

import contextlib
import warnings

# Hypothesis imports this module to report a failing property, and the import
# raises a DeprecationWarning: under a test's warnings-as-errors filter that
# ends the whole run in an INTERNALERROR. Imported here first, with that one
# warning ignored, it is already loaded when a report needs it.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
