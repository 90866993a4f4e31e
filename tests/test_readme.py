"""The library quickstart in README.md runs and shows the values it claims.

Each line of the ```python block is executed in order; a line ending in a
``# value`` comment is an expression whose ``repr`` must be that value.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart_lines():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block, "README.md has no python block"
    return [line for line in block.group(1).splitlines() if line.strip()]


def test_readme_quickstart_values():
    namespace = {}
    checked = 0
    for line in _quickstart_lines():
        code, _, value = line.partition("#")
        if value:
            assert repr(eval(code, namespace)) == value.strip(), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 7
