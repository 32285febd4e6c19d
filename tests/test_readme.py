"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    """The first fenced python block under the "## Library sketch" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert block is not None, "no python block under ## Library sketch"
    return block.group(1)


def test_library_sketch_runs():
    exec(compile(_sketch(), f"{README}:Library sketch", "exec"), {"__name__": "readme_sketch"})
