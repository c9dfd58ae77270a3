"""The README's library example runs and prints what it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_the_documented_cofactor(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    documented = re.search(r"print\(cofactor\) +# (.*)", block).group(1).strip()
    assert documented == "(a0) + (a0 + a1)x + (a0 + a1)x^3 + (a1)x^4"
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == documented + "\n"
