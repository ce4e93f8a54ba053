"""Set-up shared by every test module."""

import warnings

# Hypothesis's pytest plugin imports hypothesis.extra._patching to report a failing
# property; where libcst is installed, that import warns DeprecationWarning (libcst's use
# of mypy_extensions.TypedDict), which with every warning an error ends the test run in
# INTERNALERROR and hides the falsifying example.  Imported once here, the module is cached.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is absent: the plugin then reports without it
        pass
