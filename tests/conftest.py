"""Puts ``tests/oracles`` on ``sys.path`` for every test directory.

The oracles there — the object-graph fabric (``rrg_oracle``), the
legacy router (``legacy_router``), the dict-walk static timing
(``sta_oracle``), the from-scratch repair ladder (``repair_oracle``),
the one-vector fabric walk (``fabric_oracle``) and the per-context
sharing analysis (``sharing_oracle``) — are independent reimplementations the tests
compare the library against.  They live outside ``src/`` so
no production path can reach them; tests import them by module name.
"""

import os
import sys

_ORACLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles")
if _ORACLES not in sys.path:
    sys.path.insert(0, _ORACLES)
