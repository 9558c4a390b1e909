import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

import outerpath
from outerpath import verify
from outerpath.cli import main
from outerpath.constructions import double_star_p4_count, fib
from outerpath.verify import ALL_CHECKS, CheckResult, check_fibonacci_recurrence, run_verify

# Report recorded by the benchmark; read here, never written.
VERIFY_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify-paper.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_star_example(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--kind", "star", "--n", "7", "--k", "3")
        assert code == 0
        assert json.loads(out) == {"schema": "outerpath/1", "n": 7, "k": 3, "copies": 15}

    def test_c6_chord_example(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--kind", "c6_chord", "--k", "3")
        assert code == 0 and json.loads(out)["copies"] == 10

    def test_g6_literal(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--g6", "Cl", "--k", "3")  # C4
        assert code == 0 and json.loads(out)["copies"] == 4

    def test_g6_file(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("Cr\n")
        code, out, _ = run_cli(capsys, "count", "--in", str(path), "--k", "3")
        assert code == 0 and json.loads(out)["copies"] == 4

    def test_parse_error_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "count", "--g6", "C\x01", "--k", "3")
        assert code == 2 and "error" in err

    def test_conflicting_sources_rejected(self, capsys):
        code, _, err = run_cli(capsys, "count", "--g6", "Cl", "--kind", "star", "--n", "4", "--k", "3")
        assert code == 2


class TestSearch:
    def test_single_n_json(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "7", "--k", "3", "--jobs", "1", "--witnesses")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_copies"] == 15
        assert len(payload["witnesses"]) == 1

    def test_multi_n_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--n", "4", "5", "6", "--k", "3", "--jobs", "1", "--csv"
        )
        assert code == 0
        assert out.splitlines() == ["n,k,max_copies", "4,3,4", "5,3,6", "6,3,10"]

    def test_deterministic_bytes_across_jobs(self, capsys):
        outputs = set()
        for jobs in ("1", "2", "8"):
            code, out, _ = run_cli(
                capsys, "search", "--n", "6", "--k", "4", "--jobs", jobs, "--witnesses"
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_json_file_output(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "search", "--n", "5", "--k", "3", "--jobs", "1", "--json", str(path)
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["max_copies"] == 6

    def test_unsupported_size_message(self, capsys):
        code, _, err = run_cli(capsys, "search", "--n", "10", "--k", "3", "--jobs", "1")
        assert code == 2 and "3 <= n <= 9" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n", "5", "--k", "3"],
        ["verify-paper", "--only", "fibonacci"],
    ],
)
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(capsys, argv, jobs):
    # argparse rejects the value before the command runs
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err


class TestConstructAndDual:
    def test_construct_g6_round_trips(self, capsys):
        from outerpath import from_graph6

        code, out, _ = run_cli(capsys, "construct", "--kind", "g_t_prime", "--t", "4", "--n", "30")
        assert code == 0
        assert from_graph6(out.strip()).n == 30

    def test_construct_dot(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--kind", "cycle", "--n", "4", "--out", "dot")
        assert code == 0 and out.startswith("graph G {")

    def test_construct_json_includes_order(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--kind", "g_t", "--t", "4", "--out", "json")
        payload = json.loads(out)
        assert payload["order"].count(",") == payload["n"] - 1

    def test_dual_json_of_completed_cycle(self, capsys):
        code, out, _ = run_cli(
            capsys, "dual", "--kind", "cycle", "--n", "6", "--complete", "--out", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["faces"]) == 4
        assert len(payload["dual_edges"]) == 3

    def test_dual_rejects_non_maximal(self, capsys):
        code, _, err = run_cli(capsys, "dual", "--kind", "cycle", "--n", "6")
        assert code == 2 and "maximal_completion" in err

    def test_dual_with_explicit_order(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dual",
            "--g6", "D|c",  # fan triangulation of the pentagon
            "--order", "0,1,2,3,4",
            "--out", "dot",
        )
        assert code == 0 and out.startswith("graph dual {")


class TestVerifyPaper:
    def test_only_filter_and_pass_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-paper", "--only", "fibonacci", "--jobs", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {"total": 1, "passed": 1, "failed": 0}
        check = payload["checks"][0]
        assert set(check) == {"name", "paper_ref", "status", "observed", "expected", "elapsed"}
        assert check["elapsed"] is None  # no timestamps without --timing

    def test_timing_reports_elapsed_seconds(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-paper", "--only", "fibonacci", "--jobs", "1", "--timing"
        )
        assert code == 0
        elapsed = json.loads(out)["checks"][0]["elapsed"]
        assert isinstance(elapsed, float) and elapsed >= 0

    def test_unknown_filter_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify-paper", "--only", "zzz", "--jobs", "1")
        assert code == 2

    def test_known_failing_check_sets_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--only", "chord-crossing", "--jobs", "1")
        assert code == 1
        (check,) = json.loads(out)["checks"]
        recorded = {c["name"]: c for c in json.loads(VERIFY_REFERENCE.read_text())["checks"]}
        assert check["observed"] == recorded[check["name"]]["observed"]
        assert check["observed"]["second_order_lines"] > 0

    def test_deterministic_bytes(self, capsys):
        outs = set()
        for _ in range(2):
            code, out, _ = run_cli(capsys, "verify-paper", "--only", "triangulation", "--jobs", "1")
            assert code == 0
            outs.add(out)
        assert len(outs) == 1


def test_entry_point_runs_as_module():
    # the child imports the package this test imported, installed or not
    src = str(Path(outerpath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "outerpath.cli", "count", "--kind", "star", "--n", "5", "--k", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["copies"] == 6


def test_run_verify_library_surface():
    report = run_verify(only="p3-oracle", jobs=1)
    assert len(report.checks) == 1 and report.all_passed


def test_registry_names_match_the_recorded_report():
    names = [name for name, _ in ALL_CHECKS]
    recorded = json.loads(VERIFY_REFERENCE.read_text())["checks"]
    assert len(set(names)) == len(names)
    assert names == [check["name"] for check in recorded]


def test_checks_accept_a_worker_count_they_do_not_use():
    # the fibonacci body takes no worker count; its registered function does
    for result in (check_fibonacci_recurrence(), check_fibonacci_recurrence(2)):
        assert isinstance(result, CheckResult)
        assert (result.name, result.claim, result.passed) == ("fibonacci-path-recurrence", "C3", True)


class TestVerdictsAtTheirBounds:
    """Each bound check passes on data at its bound and fails one step past it.

    The check's data source is replaced, so the verdict is tested apart
    from the search that feeds it on a real run.
    """

    @staticmethod
    def run(name: str) -> CheckResult:
        return dict(ALL_CHECKS)[name]()

    @pytest.mark.parametrize("past, passed", [(0, True), (1, False)])
    def test_endpoint_bound(self, monkeypatch, past, passed):
        # one endpoint pair with fib(m) + past induced m-paths for every m
        def census(n, jobs=1):
            row = [0, 0] + [fib(m) + past for m in range(2, n + 1)]
            return SimpleNamespace(tolist=lambda: [row])

        monkeypatch.setattr(verify, "endpoint_pair_maxima", census)
        assert self.run("endpoint-path-bound").passed is passed

    @pytest.mark.parametrize("past, passed", [(0, True), (1, False)])
    def test_sandwich_upper_bound(self, monkeypatch, past, passed):
        # the check asks for (k+1)-paths and caps them at fib(k+1) * C(n, 2)
        def search(n, k, jobs=1):
            return SimpleNamespace(max_copies=fib(k) * comb(n, 2) + past)

        monkeypatch.setattr(verify, "extremal_value", search)
        assert self.run("path-count-sandwich").passed is passed

    @pytest.mark.parametrize("past, passed", [(0, True), (1, False)])
    def test_p4_double_star_floor(self, monkeypatch, past, passed):
        def search(n, k, jobs=1):
            return SimpleNamespace(max_copies=double_star_p4_count(n) - past)

        monkeypatch.setattr(verify, "extremal_value", search)
        assert self.run("p4-extremal-report").passed is passed
