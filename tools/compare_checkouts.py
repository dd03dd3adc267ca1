"""Check that two checkouts print the same outputs.

    python3 tools/compare_checkouts.py PARENT_DIR

Runs ``tools/cli_matrix.py`` (into a temporary directory) and
``tools/trace_counts.py`` in PARENT_DIR and in the checkout that holds this
script, each checkout's tools against its own ``src/``, and prints the lines
that differ as a unified diff: ``-`` for PARENT_DIR, ``+`` for this
checkout.  Both sides run under this process's environment, so they see
the same thread variables, as ``cli_matrix.py`` asks.

Exit status is 0 if every line is the same, 1 if any differs, and 2 if a
tool fails in either checkout.
"""

import difflib
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def outputs(checkout):
    """The lines both tools print in checkout, each led by its tool's name."""
    lines = []
    with tempfile.TemporaryDirectory() as out:
        for tool, args in (("cli_matrix.py", [out]), ("trace_counts.py", [])):
            proc = subprocess.run([sys.executable, str(checkout / "tools" / tool), *args],
                                  cwd=checkout, capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{checkout}: {tool} exited {proc.returncode}\n"
                                   f"{proc.stderr}")
            lines += [f"{tool}: {line}" for line in proc.stdout.splitlines()]
    return lines


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/compare_checkouts.py PARENT_DIR", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    try:
        old, new = outputs(parent), outputs(HERE)
    except (OSError, RuntimeError) as exc:  # a missing checkout or a failing tool
        print(exc, file=sys.stderr)
        return 2
    diff = list(difflib.unified_diff(old, new, str(parent), str(HERE), n=0, lineterm=""))
    print("\n".join(diff) if diff else f"same {len(new)} lines")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
