"""The `qcong ...` lines of the README's Quick start.

Run as a script, it runs each of them and exits 1 if any exits nonzero:

    PYTHONPATH=src python tests/readme_quick_start.py
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_commands() -> list:
    """Each `qcong ...` line of the Quick start block, as an argv list."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = re.sub(r"\\\n\s*", " ", block).splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    return [argv for argv in commands if argv and argv[0] == "qcong"]


def main() -> int:
    failed = 0
    for argv in quick_start_commands():
        code = subprocess.run([sys.executable, "-m", "qcong.cli", *argv[1:]],
                              stdout=subprocess.DEVNULL).returncode
        print(f"exit {code}: {shlex.join(argv)}")
        failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
