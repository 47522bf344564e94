"""README stays true to the package in src/: its Library example runs as
written, and its API paragraph names only symbols the package has."""

import os
import pathlib
import re
import subprocess
import sys

import uncoupled

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", library, flags=re.S | re.M)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_api_paragraph_names_only_exported_symbols():
    """Every code name in the building-blocks paragraph resolves from
    `uncoupled`, so deleting a symbol without its README entry fails here."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("Building blocks are exported individually")
    paragraph = readme[start:].split("\n\n", 1)[0]
    names = [
        tok.split("(", 1)[0]
        for tok in re.findall(r"`([^`]+)`", paragraph)
        if re.search(r"[_.A-Z]", tok)
    ]
    assert names
    missing = []
    for name in names:
        obj = uncoupled
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert not missing, f"README names symbols that uncoupled lacks: {missing}"
