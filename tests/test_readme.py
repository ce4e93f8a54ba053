"""README's Python examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_python_blocks_of_the_readme_run_in_order(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 5
    monkeypatch.chdir(tmp_path)  # a block writes results.csv
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
