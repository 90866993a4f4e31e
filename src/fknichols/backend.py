"""Kernel backend selection.

The compiled extension ``fknichols._kernels`` is used when present; the
pure-Python twin ``fknichols._kernels_py`` otherwise.  Override with the
environment variable ``FKNICHOLS_BACKEND=c`` or ``FKNICHOLS_BACKEND=py``
(requesting ``c`` when the extension is missing raises at import).
"""

from __future__ import annotations

import os

from fknichols import _kernels_py

_requested = os.environ.get("FKNICHOLS_BACKEND", "").strip().lower()

if _requested == "py":
    kernels = _kernels_py
    BACKEND = "py"
elif _requested == "c":
    from fknichols import _kernels  # type: ignore[attr-defined]

    kernels = _kernels
    BACKEND = "c"
else:
    try:
        from fknichols import _kernels  # type: ignore[attr-defined]

        kernels = _kernels
        BACKEND = "c"
    except ImportError:
        kernels = _kernels_py
        BACKEND = "py"

cartan_mrow = kernels.cartan_mrow
reflect_exponent_matrix = kernels.reflect_exponent_matrix
reflect_diagram = kernels.reflect_diagram
scan_bad_reflection = kernels.scan_bad_reflection
combine_exact = kernels.combine_exact
combine_mod = kernels.combine_mod
# the row kernels of the sweep heuristic have no compiled counterpart
reflected_labels = _kernels_py.reflected_labels
reflected_row = _kernels_py.reflected_row
exposed_vertex = _kernels_py.exposed_vertex

UNDEFINED = _kernels_py.UNDEFINED
DIAGONAL_M = _kernels_py.DIAGONAL_M
