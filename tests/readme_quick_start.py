"""The `qcong ...` lines of the README's Quick start.

Run as a script, it runs the block three times: without a cache, then
cold and warm against one fresh temporary QCONG_CACHE_DIR.  It exits 1 if
any command exits nonzero, or if a command's stdout differs between the
passes; the one allowed difference is `heckecheck`'s `table_source`,
whose "built" tables read "loaded" on the warm pass.  It also exits 1 if
the warm pass writes or changes a cache file (names and sha256 of the
directory, taken after each pass):

    PYTHONPATH=src python tests/readme_quick_start.py
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_commands() -> list:
    """Each `qcong ...` line of the Quick start block, as an argv list."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = re.sub(r"\\\n\s*", " ", block).splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    return [argv for argv in commands if argv and argv[0] == "qcong"]


def run_block(env: dict) -> list:
    """(exit code, stdout) of each Quick start command, in order."""
    results = []
    for argv in quick_start_commands():
        proc = subprocess.run([sys.executable, "-m", "qcong.cli", *argv[1:]],
                              env=env, stdout=subprocess.PIPE, text=True)
        results.append((proc.returncode, proc.stdout))
    return results


def snapshot(directory: str) -> dict:
    """{file name: sha256} of every file in the cache directory."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).iterdir())}


def warm_stdout(argv: list, cold: str) -> str:
    """The stdout a warm run should print, given the cold run's."""
    if argv[1] != "heckecheck":
        return cold
    doc = json.loads(cold)
    doc["table_source"] = {kind: "loaded" if source == "built" else source
                           for kind, source in doc["table_source"].items()}
    return json.dumps(doc, sort_keys=True) + "\n"


def main() -> int:
    env = {k: v for k, v in os.environ.items() if k != "QCONG_CACHE_DIR"}
    uncached = run_block(env)
    with tempfile.TemporaryDirectory() as cache_dir:
        env["QCONG_CACHE_DIR"] = cache_dir
        cold = run_block(env)
        after_cold = snapshot(cache_dir)
        warm = run_block(env)
        after_warm = snapshot(cache_dir)
    failed = 0
    print(f"cache files after the cold pass: {len(after_cold)}")
    if after_warm != after_cold:
        print("  the warm pass wrote or changed a cache file")
        failed += 1
    for argv, plain, first, second in zip(quick_start_commands(), uncached, cold, warm):
        print(f"exit {plain[0]}, {first[0]}, {second[0]}: {shlex.join(argv)}")
        failed += any(code != 0 for code, _ in (plain, first, second))
        if first[1] != plain[1] or second[1] != warm_stdout(argv, first[1]):
            print("  stdout differs between the passes")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
