"""The sparsify equivalence suite on the NumPy relaxation loop.

Reruns ``test_sparsify_equivalence.py`` with the loader's build made to
fail (``numpy_relax``), so every fill runs the NumPy loop.  The suite's
source runs again in this module, as in ``tests/core/test_kernels_numpy.py``.
"""

from pathlib import Path

import pytest

_SUITE = Path(__file__).with_name("test_sparsify_equivalence.py")
exec(compile(_SUITE.read_text(), str(_SUITE), "exec"))

pytestmark = pytest.mark.usefixtures("numpy_relax")
