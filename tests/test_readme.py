"""The README's examples, run against the code they describe."""

import json
import re
import shlex
from pathlib import Path

from surfcomplex.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.S | re.M)


def test_readme_examples_run(capsys):
    (commands,) = [b for b in blocks("sh") if b.startswith("surfcomplex ")]
    outputs = {}
    for line in commands.splitlines():
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        outputs[tuple(argv[:2])] = capsys.readouterr().out
    assert len(outputs) == 7
    # The `torus graph` schema elides its lists with "...", so it is not compared.
    path, graph, info = blocks("json")
    assert "..." in graph
    assert json.loads(path) == json.loads(outputs["torus", "path"])
    assert json.loads(info) == json.loads(outputs["seifert", "info"])
    (example,) = blocks("python")
    exec(example, {})
    assert capsys.readouterr().out
