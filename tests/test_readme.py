"""The README's library example runs as written, and every command of its CLI
block parses."""

import re
import shlex
from pathlib import Path

from hypergraph_spectra.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_cli_block_parses():
    # parsed, not run: the edge_bbp example at n=2000 takes minutes
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "hgspec"
        build_parser().parse_args(argv[1:])  # a usage error exits 2
