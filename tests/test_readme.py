"""The `$ klr ...` examples in README.md, run through the CLI in-process."""

import shlex
from pathlib import Path

from klr.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples(text):
    """(argv, expected stdout lines) for each `$ klr` line of the sh blocks.

    An example whose output is elided with `...` is left out.
    """
    examples = []
    in_sh, current = False, None
    for line in text.splitlines():
        if line.startswith("```"):
            in_sh, current = line == "```sh", None
        elif in_sh and line.startswith("$ "):
            argv = shlex.split(line[2:], comments=True)
            current = (argv[1:], []) if argv[0] == "klr" else None
            if current:
                examples.append(current)
        elif current:
            current[1].append(line)
    return [(argv, out) for argv, out in examples if "..." not in out]


def test_readme_examples(capsys, graph_files):
    examples = readme_examples(README.read_text())
    assert len(examples) == 15
    for argv, expected in examples:
        argv = [graph_files[a[:-len(".json")]] if a.endswith(".json") else a
                for a in argv]
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == expected, argv
