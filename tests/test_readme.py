import re
import shlex
from pathlib import Path

from qcong import cli
from qcong.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs():
    # the README's Library example must keep working as the API changes
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "import" in block and "assert" in block
    exec(compile(block, str(README), "exec"), {})


def test_readme_quick_start_parses():
    # every `qcong ...` line of the Quick start block is a valid command
    # line; the commands are parsed, never run
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = re.sub(r"\\\n\s*", " ", block).splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv for argv in commands if argv and argv[0] == "qcong"]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]


def test_readme_exit_codes_match_cli():
    # the README's exit-code table lists exactly the codes cli.EXIT_* defines
    section = README.read_text(encoding="utf-8").split("\n### Exit codes\n", 1)[1]
    table = section.strip().split("\n\n", 1)[0]
    codes = [int(m) for m in re.findall(r"^\|\s*(\d+)\s*\|", table, re.M)]
    defined = [v for k, v in sorted(vars(cli).items()) if k.startswith("EXIT_")]
    assert codes == sorted(defined)
