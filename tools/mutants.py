"""Run a fixed list of textual mutants and fail if any survives.

Each mutant replaces one piece of text, which must occur exactly once, in
one file of a temporary copy of the repository, then runs the pytest
selection given for it there.  A mutant is killed when the selection
fails; before any mutant runs, every selection must pass on the unmutated
copy, so a red selection cannot kill mutants by itself.

    python3 tools/mutants.py

Each mutant's line gives the wall time of its selection, and the last
line the wall time of the whole run, baseline selections included.  Exit
status 0 means every mutant was killed, 1 that some survived or did not
apply.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHORDS = "src/outerpath/chords.py"
CONSTRUCTIONS = "src/outerpath/constructions.py"
DUAL = "src/outerpath/dual.py"
GRAPH = "src/outerpath/graph.py"
GRAPH6 = "src/outerpath/graph6.py"
OUTERPLANAR = "src/outerpath/outerplanar.py"
PATHS = "src/outerpath/paths.py"
POLYGON = "src/outerpath/polygon.py"
SEARCH = "src/outerpath/search.py"
VERIFY = "src/outerpath/verify.py"

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
    (
        "lister's last level drops the end set",
        PATHS,
        "            cand &= end\n",
        "",
        ["tests/test_paths.py"],
    ),
    (
        "path walk keeps a cycle edge to an earlier path vertex",
        SEARCH,
        "after_on if after == ubit else after_off",
        "after_on if after == ubit else everyone",
        ["tests/test_search.py"],
    ),
    (
        "path walk leaves the w-1 edge cubes unrotated",
        SEARCH,
        "*edge[w - 1]",
        "*edge[w]",
        ["tests/test_search.py"],
    ),
    (
        "candidate walk skips the start n-2",
        SEARCH,
        "for s in range(n - 1):\n        extend(",
        "for s in range(n - 2):\n        extend(",
        ["tests/test_search.py"],
    ),
    (
        "candidate chord test counts the predecessor",
        SEARCH,
        "chord_adj[w] & pmask & ~ubit",
        "chord_adj[w] & pmask",
        ["tests/test_search.py"],
    ),
    (
        "counter carry stops one plane early",
        SEARCH,
        "for j, plane in enumerate(planes):",
        "for j, plane in enumerate(planes[:-1]):",
        ["tests/test_search.py"],
    ),
    (
        "argmax walks the planes bottom-up",
        SEARCH,
        "for j in reversed(range(len(planes))):",
        "for j in range(len(planes)):",
        ["tests/test_search.py"],
    ),
    (
        "census distance ignores the wrap-around",
        SEARCH,
        "distance = (min(y - x, n - y + x)",
        "distance = (min(y - x, n // 2)",
        ["tests/test_search.py"],
    ),
    (
        "census write ignores the wrap-around",
        SEARCH,
        "at = min(y - x, n - y + x) * (n + 1)",
        "at = min(y - x, n // 2) * (n + 1)",
        ["tests/test_search.py::TestEndpointCensus::test_block_census_equals_direct_counting"],
    ),
    (
        "small sweeps fork and large ones run in the caller",
        SEARCH,
        "if len(reps) << n < _FORK_WORK:",
        "if len(reps) << n >= _FORK_WORK:",
        ["tests/test_search.py"],
    ),
    (
        "dihedral images drop the reflections",
        POLYGON,
        "for sign in (1, -1):",
        "for sign in (1,):",
        ["tests/test_search.py"],
    ),
    (
        "dissections merge a face only over a gap of three",
        POLYGON,
        "dissect and c - lo >= 2",
        "dissect and c - lo >= 3",
        ["tests/test_search.py"],
    ),
    (
        "s2 counts non-induced 3-vertex paths",
        CHORDS,
        "adj[c] & interior_mask & ~adj[e]",
        "adj[c] & interior_mask",
        ["tests/test_acceptance.py::test_criterion_08_chord_inequality_suite"],
    ),
    (
        "class A admits two neighbors among x's side-neighbors",
        CHORDS,
        "(adj[v] & ox_mask).bit_count() <= 1",
        "(adj[v] & ox_mask).bit_count() <= 2",
        ["tests/test_chords.py::TestPartition::test_classes_agree_with_naive_definitions"],
    ),
    (
        "class B takes the gaps that hold a common neighbor",
        CHORDS,
        "if not adj[seq[i]] & adj[seq[j]] & vertex_set(seq[i + 1 : j])",
        "if adj[seq[i]] & adj[seq[j]] & vertex_set(seq[i + 1 : j])",
        ["tests/test_chords.py::TestPartition::test_classes_agree_with_naive_definitions"],
    ),
    (
        "v_ell is never shared",
        CHORDS,
        "v_ell=ox[-1] if ox and oy and ox[-1] == oy[0] else None,",
        "v_ell=None,",
        ["tests/test_chords.py::TestPartition::test_shared_vertex_lives_in_both_d_classes"],
    ),
    (
        "phi counts paths that meet either side",
        CHORDS,
        "pmask & u_strict and pmask & up_strict",
        "pmask & u_strict or pmask & up_strict",
        ["tests/test_chords.py::TestPhi::test_agrees_with_brute_on_corpus_n6"],
    ),
    (
        "graph6 writes a 1-byte header for n = 63",
        GRAPH6,
        "if n <= 62:\n        out = [chr(63 + n)]",
        "if n <= 63:\n        out = [chr(63 + n)]",
        ["tests/test_graph6.py::test_round_trip_63_and_64"],
    ),
    (
        "canonical search cuts a prefix equal to the best",
        GRAPH,
        "if tight and low > best[d]:",
        "if tight and low >= best[d]:",
        ["tests/test_graph.py"],
    ),
    (
        "every vertex is its own lower twin",
        GRAPH,
        "for u in range(v):",
        "for u in range(v + 1):",
        ["tests/test_graph.py"],
    ),
    (
        "canonical search never stores a leaf",
        GRAPH,
        "best = cols.copy()",
        "cols.copy()",
        ["tests/test_graph.py"],
    ),
    (
        "canonical search keeps a stale tight flag after a leaf",
        GRAPH,
        "tight = stored = True",
        "stored = True",
        ["tests/test_graph.py"],
    ),
    (
        "block search splits only below a strict low point",
        GRAPH,
        "if low[w] >= dv:",
        "if low[w] > dv:",
        ["tests/test_graph.py"],
    ),
    (
        "embedding check skips the sort of its spans",
        OUTERPLANAR,
        "    spans.sort()\n",
        "",
        ["tests/test_outerplanar.py"],
    ),
    (
        "peel joins u and w to themselves",
        OUTERPLANAR,
        "for a, other in ((u, wbit), (w, ubit)):",
        "for a, other in ((u, ubit), (w, wbit)):",
        ["tests/test_outerplanar.py"],
    ),
    (
        "recognition trusts the peeled cycle unchecked",
        OUTERPLANAR,
        "if cycle is None or not _crossing_free(g.adj, cycle):",
        "if cycle is None:",
        ["tests/test_outerplanar.py"],
    ),
    (
        "outer cycle returns before its check",
        OUTERPLANAR,
        "if cycle is not None and _crossing_free(g.adj, cycle):",
        "if cycle is not None:",
        ["tests/test_outerplanar.py"],
    ),
    (
        "crossing scan reads edges that leave the listed vertices",
        OUTERPLANAR,
        "row = adj[u] & mask\n",
        "row = adj[u]\n",
        ["tests/test_outerplanar.py::TestCertificateCheck::test_scan_reads_only_edges_among_the_listed_vertices"],
    ),
    (
        "balanced-cut check reads the cut in one orientation",
        VERIFY,
        "    if parent[u] == v:\n        u, v = v, u\n",
        "",
        ["tests/test_dual.py"],
    ),
    (
        "endpoint bound admits one path over fib(m)",
        VERIFY,
        "if worst > fib(m):",
        "if worst > fib(m) + 1:",
        ["tests/test_verify_cli.py::TestVerdictsAtTheirBounds::test_endpoint_bound"],
    ),
    (
        "sandwich admits one copy over its upper bound",
        VERIFY,
        "if report.max_copies > upper:",
        "if report.max_copies > upper + 1:",
        ["tests/test_verify_cli.py::TestVerdictsAtTheirBounds::test_sandwich_upper_bound"],
    ),
    (
        "P4 report admits one copy under the double star",
        VERIFY,
        "if report.max_copies < floor:",
        "if report.max_copies < floor - 1:",
        ["tests/test_verify_cli.py::TestVerdictsAtTheirBounds::test_p4_double_star_floor"],
    ),
    (
        "balanced cut folds a side of exactly half",
        DUAL,
        "if side > half:",
        "if side >= half:",
        ["tests/test_dual.py::TestBalancedEdgeCut::test_ties_go_to_the_smallest_edge"],
    ),
    (
        "balanced cut counts no children",
        DUAL,
        "        deg[p] += 1\n",
        "",
        ["tests/test_dual.py::TestBalancedEdgeCut::test_degree_cap_enforced"],
    ),
    (
        "tree construction skips validation",
        DUAL,
        "        self.__post_init__()\n",
        "",
        ["tests/test_dual.py::TestTree"],
    ),
    (
        "fib index shifted by one",
        CONSTRUCTIONS,
        "for _ in range(t - 2):",
        "for _ in range(t - 1):",
        ["tests/test_constructions.py"],
    ),
    (
        "lower bound off by one in n",
        CONSTRUCTIONS,
        "(n - 2 * k + 3) ** 2",
        "(n - 2 * k + 2) ** 2",
        ["tests/test_constructions.py"],
    ),
]

IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_*"
)


def run_selection(copy: Path, selection: list[str]) -> subprocess.CompletedProcess:
    # no bytecode cache: a .pyc is matched by source mtime (whole seconds)
    # and size, so two same-size mutants of one file could share a stale one
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
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
    start = time.perf_counter()
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
            t0 = time.perf_counter()
            try:
                proc = run_selection(copy, selection)
            finally:
                path.write_text(text)
            took = f"{time.perf_counter() - t0:5.1f} s"
            # pytest exits 1 when tests ran and some failed; any other
            # nonzero status is an error in the run, not a kill
            if proc.returncode == 1:
                print(f"killed       {took}  {name}: {summary(proc)}")
            elif proc.returncode == 0:
                print(f"SURVIVED     {took}  {name}: {summary(proc)}")
                bad += 1
            else:
                print(f"ERROR        {took}  {name}: pytest exited {proc.returncode}: {summary(proc)}")
                bad += 1
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in {total:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
