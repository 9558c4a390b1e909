"""Run a fixed list of textual mutants and fail if any survives.

Each mutant replaces one piece of text, which must occur exactly once, in
one file of a temporary copy of the repository, then runs the pytest
selection given for it there.  A mutant is killed when the selection
fails; before any mutant runs, every selection must pass on the unmutated
copy, so a red selection cannot kill mutants by itself.

    python3 tools/mutants.py

Exit status 0 means every mutant was killed, 1 that some survived or did
not apply.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATHS = "src/outerpath/paths.py"

# (name, file, old text, new text, pytest selection)
MUTANTS = [
    (
        "counter candidates ignore forb",
        PATHS,
        "cand = adj[last] & ~forb\n        forb |= adj[last]",
        "cand = adj[last]\n        forb |= adj[last]",
        ["tests/test_paths.py"],
    ),
    (
        "last-level mask drops the end set",
        PATHS,
        "keep = end & ~forb",
        "keep = ~forb",
        ["tests/test_paths.py"],
    ),
    (
        "early stop tests forb against end",
        PATHS,
        "if not keep:",
        "if forb & end:",
        ["tests/test_paths.py"],
    ),
]

IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_*"
)


def run_selection(copy: Path, selection: list[str]) -> subprocess.CompletedProcess:
    # no bytecode cache: a .pyc is matched by source mtime (whole seconds)
    # and size, so two same-size mutants of one file could share a stale one
    env ={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *selection],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )


def summary(proc: subprocess.CompletedProcess) -> str:
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else proc.stderr.strip()


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="outerpath-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        for selection in sorted({tuple(m[4]) for m in MUTANTS}):
            proc = run_selection(copy, list(selection))
            if proc.returncode != 0:
                print(f"unmutated copy fails {' '.join(selection)}: {summary(proc)}")
                return 1
        for name, rel, old, new, selection in MUTANTS:
            path = copy / rel
            text = path.read_text()
            if text.count(old) != 1:
                print(f"NOT APPLIED  {name}: {old!r} occurs {text.count(old)} times in {rel}")
                bad += 1
                continue
            path.write_text(text.replace(old, new))
            try:
                proc = run_selection(copy, selection)
            finally:
                path.write_text(text)
            # pytest exits 1 when tests ran and some failed; any other
            # nonzero status is an error in the run, not a kill
            if proc.returncode == 1:
                print(f"killed       {name}: {summary(proc)}")
            elif proc.returncode == 0:
                print(f"SURVIVED     {name}: {summary(proc)}")
                bad += 1
            else:
                print(f"ERROR        {name}: pytest exited {proc.returncode}: {summary(proc)}")
                bad += 1
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
