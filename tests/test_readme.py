import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_certifies():
    # the README's python block, run as written: the docs cannot go stale
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md python block", "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed[0] == "True"
    assert float(printed[1]) > 0
