import json
import re

import pytest

from qcong import cli
from qcong.cli import build_parser
from readme_quick_start import README, quick_start_commands


def test_readme_library_block_runs():
    # the README's Library example must keep working as the API changes
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "import" in block and "assert" in block
    exec(compile(block, str(README), "exec"), {})


def test_readme_quick_start_parses():
    # every `qcong ...` line of the Quick start block is a valid command
    # line; here the commands are parsed, and CI runs them
    commands = quick_start_commands()
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


def _schema_keys(command):
    section = README.read_text(encoding="utf-8").split("\n## JSON output schema\n", 1)[1]
    fields = re.search(rf"^- `{command}`: `\{{(.*?)\}}`", section, re.M).group(1)
    return sorted(field.split(":")[0].strip() for field in fields.split(","))


@pytest.mark.parametrize("argv", [
    ("phi", "--delta", "-8", "--r", "4", "--prec", "5", "--modulus", "23"),
    ("eval", "eta(q)^24", "--prec", "4"),
], ids=["phi", "eval"])
def test_readme_json_schema_matches_output(capsys, argv):
    # `--json` emits exactly the keys the README's schema lists, with the
    # CSV output's values as decimal strings
    assert cli.main([*argv]) == 0
    csv = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()]
    assert cli.main([*argv, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == _schema_keys(argv[0])
    assert doc["command"] == argv[0] and doc["values"] == csv
    if "c1" in doc:
        assert doc["c1"] == "-4"    # c(1) of the twist (-8, 4)
    assert len(csv) == int(argv[argv.index("--prec") + 1])
