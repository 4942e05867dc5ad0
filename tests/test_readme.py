"""The README's library quick start runs against the package as it stands."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quick start", "exec"), {})
    # One line per defined branch, then the two error reductions.
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21 + 2
