"""The integer kernels, as the engines call them.

Every kernel has one implementation, in the module ``_kernels_py``; this
module only binds its names.  Three things outside the package rely on
this layout, so keep it:

* ``BACKEND`` is the constant ``"py"``: the benchmark (``perfbench/``) counts
  a run as failed unless ``fknichols.BACKEND == "py"``.
* The engines call the kernels as ``backend.<name>``, looked up at call
  time, so a tracer that wraps ``backend.cartan_mrow``,
  ``backend.reflect_diagram`` and the other names sees every call.  Calls
  made through ``_kernels_py`` directly would not be counted.
* The kernels stay in the file ``_kernels_py.py``: the benchmark's
  wrong-kernel self-test edits that file by name.
"""

from fknichols import _kernels_py

BACKEND = "py"

cartan_mrow = _kernels_py.cartan_mrow
reflect_exponent_matrix = _kernels_py.reflect_exponent_matrix
reflect_diagram = _kernels_py.reflect_diagram
reflected_labels = _kernels_py.reflected_labels
reflected_row = _kernels_py.reflected_row
exposed_vertex = _kernels_py.exposed_vertex
scan_bad_reflection = _kernels_py.scan_bad_reflection
combine_exact = _kernels_py.combine_exact
combine_mod = _kernels_py.combine_mod

UNDEFINED = _kernels_py.UNDEFINED
