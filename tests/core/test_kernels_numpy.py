"""The kernel suite of ``test_kernels.py`` on the NumPy relaxation loop.

The loader's build is made to fail (``numpy_relax``), so every fill runs
the NumPy loop, the fallback on hosts without a C compiler and the
reference the compiled loop is held to.  The suite's source runs again
in this module, so each test is a new function object: hypothesis
refuses to run one test method under two different instances.
"""

from pathlib import Path

import pytest

_SUITE = Path(__file__).with_name("test_kernels.py")
exec(compile(_SUITE.read_text(), str(_SUITE), "exec"))

pytestmark = pytest.mark.usefixtures("numpy_relax")
