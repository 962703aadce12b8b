"""The package's public surface."""
from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

import pfchan
from pfchan.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

# Loaded only when a live command needs them; a fresh `import pfchan` is
# timed as set-up, and importing multiprocessing there cost about 4 ms.
LIVE_ONLY_MODULES = (
    "pfchan.live", "ctypes", "mmap", "multiprocessing", "multiprocessing.connection"
)
# Loaded only by the one function that uses each: cell_seed (hashlib, which
# brings OpenSSL's _hashlib: about 4 ms and 3.8 MiB of RSS on Python 3.11)
# and write_csv (csv, about 0.8 ms); string went for a literal of hex digits
# (about 1 ms). Together they were about a fifth of a cold `import pfchan`.
ONE_CALLER_MODULES = ("hashlib", "_hashlib", "csv", "_csv", "string")


def test_every_public_name_resolves():
    missing = [name for name in pfchan.__all__ if not hasattr(pfchan, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    # the README's library snippet is the documented report API; run it so
    # the two cannot drift apart
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_import_leaves_the_live_backend_unloaded():
    # and the one-caller modules; each import runs in a fresh interpreter and
    # is compared against what that interpreter held before it, since a
    # host's site may load one of these itself
    src = Path(pfchan.__file__).resolve().parent.parent
    for module in ("pfchan", "pfchan.cli"):
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            f"import {module}; "
            f"print(*[m for m in {LIVE_ONLY_MODULES + ONE_CALLER_MODULES!r} "
            "if m in sys.modules and m not in before])"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, str(src)],
            capture_output=True, text=True, check=True,
        )
        assert (module, proc.stdout.split()) == (module, [])


def test_readme_names_only_flags_the_cli_accepts():
    # from the CLI section on; the pip flags under Install are not pfchan's
    text = README.read_text().split("\n## CLI\n", 1)[1]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    subcommands = next(
        action.choices.values()
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    accepted = {
        option
        for parser in subcommands
        for action in parser._actions
        for option in action.option_strings
    }
    assert named and named - accepted == set()


def test_model_surface_is_only_what_the_slot_path_uses():
    # the fault rule and residency helpers live in the tests, not in src
    def public(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    callables = {
        name for name in public(pfchan.CacheSchedSim)
        if callable(getattr(pfchan.CacheSchedSim, name))
    }
    assert callables == {"evict", "plan_access", "land_access", "run_spy_slot"}
    assert public(pfchan.PagePair) == {"p1", "p2", "slot", "count", "index"}
    assert not hasattr(pfchan, "compute_metrics")


def test_the_traced_benchmark_finds_every_seam_it_patches(monkeypatch):
    # the benchmark's full tracer patches the live backend by name
    # (SharedRegion.residency and read_byte, live.evict_pair and
    # live.page_pair_for_slot among them), and only a live CI step installs
    # it that way, so a seam renamed in src would break a traced run unseen;
    # installing it here fails on a missing name, and every patch must come
    # off again
    import pfchan.live  # noqa: F401 - bound as pfchan.live

    monkeypatch.syspath_prepend(str(README.parent / "perfbench"))
    from tracing import Tracer

    tracer = Tracer(full=True)
    with tracer.installed(pfchan, live=True):
        patched = list(tracer._saved)
        assert all(vars(owner)[name] is not old for owner, name, old in patched)
    assert patched
    assert all(vars(owner)[name] is old for owner, name, old in patched)
