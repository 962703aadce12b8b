"""The package's public surface."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pfchan

# Loaded only when a live command needs them; a fresh `import pfchan` is
# timed as set-up, and importing multiprocessing there cost about 4 ms.
LIVE_ONLY_MODULES = (
    "pfchan.live", "ctypes", "mmap", "multiprocessing", "multiprocessing.connection"
)


def test_every_public_name_resolves():
    missing = [name for name in pfchan.__all__ if not hasattr(pfchan, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    # the README's library snippet is the documented report API; run it so
    # the two cannot drift apart
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_import_leaves_the_live_backend_unloaded():
    src = Path(pfchan.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import pfchan; "
        f"print(*[m for m in {LIVE_ONLY_MODULES!r} if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(src)],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == []
