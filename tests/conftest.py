"""Set-up shared by every test module, run once when pytest starts."""

import warnings

# When a Hypothesis property fails, the plugin explains the falsifying
# example with hypothesis.extra._patching, which imports libcst if it is
# installed. Some libcst versions warn on import (DeprecationWarning from
# mypy_extensions), and under `pytest -W error` that warning becomes an
# INTERNALERROR that hides the example. Importing the module once here, with
# the warning ignored, leaves nothing to warn later.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
