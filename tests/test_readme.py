import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs():
    # the README's Library example must keep working as the API changes
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "import" in block and "assert" in block
    exec(compile(block, str(README), "exec"), {})
