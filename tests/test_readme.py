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


def _schema(command):
    """The README's schema of one command: its keys, each mapped to the
    keys of its nested object (or of a list's objects), else to None."""
    section = README.read_text(encoding="utf-8").split("\n## JSON output schema\n", 1)[1]
    fields = re.search(rf"^- `{command}`: `\{{(.*?)\}}`", section, re.M | re.S).group(1)
    schema = {}
    for key, nested in re.findall(r"(\w+)(?::\s*\[?\s*(\{[^}]*\}|\w+)\]?)?", fields):
        schema[key] = sorted(re.findall(r"\w+", nested)) if nested.startswith("{") else None
    return schema


TWIST = ("--delta", "-8", "--r", "4")
SETTING = ("--ell", "23", "--R", "1", "--B", "2")


@pytest.mark.parametrize("argv", [
    ("coeffs", "--function", "omega", "--upto", "5", "--modulus", "23"),
    ("phi", *TWIST, "--prec", "5", "--modulus", "23"),
    ("heckecheck", *TWIST, *SETTING, "--p", "5", "--prec", "5"),
    ("certify", *TWIST, *SETTING, "--p", "5", "--prec", "5", "--M", "1", "2"),
    ("eval", "eta(q)^24", "--prec", "4"),
    ("scan", *TWIST, *SETTING, "--bound", "7", "--prec", "3"),
], ids=lambda argv: argv[0])
def test_readme_json_schema_matches_output(capsys, argv):
    # `--json` emits exactly the keys the README's schema lists, nested
    # objects included, and the CSV output's values as decimal strings
    assert cli.main([*argv, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema = _schema(argv[0])
    assert doc["command"] == argv[0] and sorted(doc) == sorted(schema)
    for key, nested in schema.items():
        if nested is not None:
            for obj in doc[key] if isinstance(doc[key], list) else [doc[key]]:
                assert sorted(obj) == nested, key
    if argv[0] == "heckecheck":
        return  # JSON is its only output
    assert cli.main(list(argv)) == 0
    csv = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    if "values" in doc:
        assert doc["values"] == [row[1] for row in csv]
        assert len(csv) == (doc["prec"] if "prec" in doc else doc["upto"] + 1)
    else:
        columns = {"certify": ("M", "index", "predicted", "actual", "match"),
                   "scan": ("p", "class", "lambda", "first_failure")}[argv[0]]
        assert [[str(row[c]).lower() if row[c] is not None else "" for c in columns]
                for row in doc["rows"]] == csv
    if "c1" in doc:
        assert doc["c1"] == "-4"    # c(1) of the twist (-8, 4)
