"""The README's ``python`` blocks run as written against the library."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    monkeypatch.chdir(tmp_path)  # a block that writes files writes them here
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
