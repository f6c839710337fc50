"""The README's Python examples run as written and print what their
comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        # in order and in one namespace, as a reader types them
        for block in blocks:
            exec(block, namespace)
    # each `print(...)  # ~0.02` prints a number that rounds to its comment
    expected = re.findall(r"^print\(.*\)\s+# ~([0-9.]+)", "".join(blocks), re.M)
    printed = out.getvalue().split()
    assert len(printed) == len(expected)
    for value, comment in zip(printed, expected):
        decimals = len(comment.partition(".")[2])
        assert round(float(value), decimals) == float(comment), (value, comment)
