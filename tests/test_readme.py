"""The README's examples run and give what they document."""

import contextlib
import io
import json
import re
import shlex
import types
from ast import literal_eval
from pathlib import Path

import prouhet
from prouhet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(info):
    """The fenced blocks of README.md whose info string is `info`, in order."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)
    return [body for tag, body in blocks if tag == info]


def run_library_example():
    block = fenced("python")[0]
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    return block, namespace


def test_library_example_prints_the_documented_cofactor(capsys):
    block, _ = run_library_example()
    documented = re.search(r"print\(cofactor\) +# (.*)", block).group(1).strip()
    assert documented == "(a0) + (a0 + a1)x + (a0 + a1)x^3 + (a1)x^4"
    assert capsys.readouterr().out == documented + "\n"


def test_library_example_values_match_their_comments():
    block, namespace = run_library_example()
    comments = dict(re.findall(r"^(\w+) = .*?# (.*)$", block, re.M))
    assert comments["table"] == "((3,3,3), (12,12,12))"
    assert namespace["table"] == literal_eval(comments["table"])
    assert namespace["part"] == literal_eval(comments["part"])
    fields = re.findall(r"(\w+)=(\(.*?\)|\w+)", comments["report"])
    assert [key for key, _ in fields] == ["equal_up_to", "first_violation"]
    for key, value in fields:
        assert getattr(namespace["report"], key) == literal_eval(value)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())["result"]


def test_cli_examples_exit_0_with_the_documented_values():
    lines = [
        line for block in fenced("") for line in block.splitlines() if line.startswith("prouhet ")
    ]
    assert len(lines) == 7
    results = {}
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        code, result = run_cli(argv)
        assert code == 0, line
        results[" ".join(argv)] = result, comment.strip()
    sequence, comment = results["ptm --p 2 --n 3"]
    assert comment == "0,1,1,0,1,0,0,1"
    assert ",".join(map(str, sequence["sequence"])) == comment
    partition, comment = results["partition --p 2 --m 3"]
    assert "8/60/620/7200" in comment
    assert "/".join(row[0] for row in partition["power_sums"]) == "8/60/620/7200"
    assert partition == json.loads(fenced("json")[0])


def test_all_is_what_the_library_section_uses():
    # Every public package name the Library section mentions, and no other.
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    names = {
        word for word in re.findall(r"\w+", section)
        if not word.startswith("_") and word in vars(prouhet)
        and not isinstance(vars(prouhet)[word], types.ModuleType)
    }
    assert sorted(prouhet.__all__) == sorted(names)
    assert all(hasattr(prouhet, name) for name in prouhet.__all__)
