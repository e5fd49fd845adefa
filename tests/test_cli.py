import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lemmas import eta_bound
from purestream import applications, cli, dense_oracle, gadget, recurrence, streaming
from purestream.cli import _region_grid, build_parser, main
from purestream.core import Seed


# every command's golden argv (tests/test_goldens.py pins their bytes)
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_sha256.json"
GOLDEN_ARGVS = [case["argv"] for case in json.loads(GOLDEN.read_text())]


def run_cli(args):
    return main(args)


def run_python(args, timeout):
    """Run python with `args` in a fresh interpreter; a hang fails the test at timeout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=timeout,
    )


def run_cli_process(argv, timeout):
    """Run the CLI in a fresh interpreter; a hang fails the test at timeout."""
    return run_python(["-m", "purestream.cli", *argv], timeout)


def tree(root):
    """Every path under root, each file with its bytes."""
    return {str(p.relative_to(root)): p.is_file() and p.read_bytes() for p in root.rglob("*")}


def read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestRecurrenceCommand:
    def test_default_preset_d20_crossing(self, tmp_path):
        out = tmp_path / "rec.csv"
        assert run_cli(["recurrence", "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["d", "i", "delta_i", "p_i"]
        assert meta["schema"] == "recurrence-v1"
        d20 = {int(r[1]): float(r[2]) for r in rows if r[0] == "20"}
        assert d20[40] >= 2 / 3 > d20[41]
        # the infinite-d curve dominates every finite-d curve pointwise
        dinf = {int(r[1]): float(r[2]) for r in rows if r[0] == "inf"}
        for i in range(61):
            assert d20[i] <= dinf[i]

    def test_zero_iters_single_row(self, tmp_path):
        out = tmp_path / "rec0.csv"
        assert run_cli(["recurrence", "--d", "2", "--delta0", "0.4", "--iters", "0",
                        "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0] == ["2", "0", "0.4", ""]

    def test_low_noise_rows_obey_eta_bound(self, tmp_path):
        out = tmp_path / "rec2.csv"
        assert run_cli(["recurrence", "--d", "2", "--delta0", "0.25", "--iters", "20",
                        "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        for r in rows:
            assert float(r[2]) <= eta_bound(0.25, int(r[1])) + 1e-14

    def test_bad_dimension_token(self, capsys):
        assert run_cli(["recurrence", "--d", "banana"]) == 1

    def test_dimension_beyond_the_float_range(self, tmp_path):
        # 1/d is 0.0 there, so the rows are the d = inf rows, and no
        # overflow cuts the CSV short
        big = str(10**400)
        out = tmp_path / "big.csv"
        assert run_cli(["recurrence", "--d", f"{big},inf", "--delta0", "0.5", "--iters", "2",
                        "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [r[0] for r in rows] == [big] * 3 + ["inf"] * 3
        assert [r[1:] for r in rows[:3]] == [r[1:] for r in rows[3:]]

    def test_rows_stream_from_the_walk(self, monkeypatch):
        # the output made by the time each level is walked
        buf = io.StringIO()
        written = []
        walk = recurrence.orbit

        def watched(*args):
            for level in walk(*args):
                written.append(buf.getvalue())
                yield level

        monkeypatch.setattr(recurrence, "orbit", watched)
        with contextlib.redirect_stdout(buf):
            assert run_cli(["recurrence", "--d", "2", "--delta0", "0.9", "--iters", "100"]) == 0
        assert len(written) == 101
        assert written[0] == ""  # the arguments are checked before any byte
        assert "\n2,0,0.9,\n" in written[-1]  # the first row is out before the last level


class TestBoundsCommand:
    def test_low_noise_case_bound(self, tmp_path):
        out = tmp_path / "b.json"
        assert run_cli(["bounds", "--d", "2", "--delta0", "0.25", "--eps", "1e-3",
                        "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        b = doc["bounds"]
        assert b["sc_exact"] <= 2000.0 == b["sc_theorem_bound"]
        assert b["n_upper_inf"] is None  # out of the high-noise hypothesis

    def test_ordering_high_noise(self, tmp_path):
        out = tmp_path / "b2.json"
        assert run_cli(["bounds", "--d", "2", "--delta0", "0.9", "--eps", "1e-2",
                        "--format", "json", "--out", str(out)]) == 0
        b = json.loads(out.read_text())["bounds"]
        assert b["lower_bound_samples"] <= b["sc_exact"] <= b["sc_theorem_bound"]
        assert b["n_upper_inf"] == 15
        assert b["n_upper_finite_d"] == 6

    def test_text_format_reports_na(self, capsys):
        assert run_cli(["bounds", "--d", "3", "--delta0", "0.5", "--eps", "1e-2"]) == 0
        text = capsys.readouterr().out
        assert "N/A" in text
        assert "n_upper_finite_d" in text


class TestIterationCap:
    # near delta = 1 at a large d the walk moves by about 1e-15 a level, so
    # neither converges within ITERATION_CAP; each once leaked a traceback
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--d", "1000000", "--delta0", "0.999999999", "--eps", "0.01"],
            ["simon", "--m", "10", "--delta", "0.999999999999", "--eps", "1e-9", "--trials", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_refused_naming_the_cap(self, argv, capsys):
        assert run_cli(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        error = err.splitlines()[-1]
        assert error.startswith("error: ") and "ITERATION_CAP" in error


class TestRegionCommand:
    def test_boundary_value_on_grid(self, tmp_path):
        out = tmp_path / "r.csv"
        # resolution 199 puts delta1 = 0.5 exactly on the grid
        assert run_cli(["region", "--d-list", "2", "--resolution", "199",
                        "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        by_delta = {float(r[1]): float(r[2]) for r in rows}
        assert by_delta[0.5] == pytest.approx(5 / 7, abs=1e-12)

    def test_monotone_in_d(self, tmp_path):
        out = tmp_path / "r2.csv"
        assert run_cli(["region", "--d-list", "2,3,6,inf", "--resolution", "20",
                        "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        table = {}
        for r in rows:
            table.setdefault(float(r[1]), []).append(float(r[2]))
        for delta1, vals in table.items():
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-15

    def test_default_includes_exact_infinite_d(self, tmp_path):
        out = tmp_path / "r3.csv"
        assert run_cli(["region", "--resolution", "199", "--out", str(out)]) == 0
        meta, _, rows = read_csv(out)
        assert meta["schema"] == "region-v3"
        assert json.loads(meta["params"])["d_list"] == ["2", "3", "6", "inf"]
        inf_rows = {float(r[1]): float(r[2]) for r in rows if r[0] == "inf"}
        assert len(inf_rows) == 199
        assert inf_rows[0.5] == 2 / 3  # 1/2 + (1/2)(1/2)/(3/2), exactly

    @pytest.mark.parametrize(
        "resolutions",
        [range(1, 3000), [10**4, 54321, 10**5]],
        ids=["1..2999", "large"],
    )
    def test_grid_is_linspace_bit_for_bit(self, resolutions):
        for r in resolutions:
            assert _region_grid(r) == np.linspace(0.0, 1.0, r + 2)[1:-1].tolist(), r


class TestSimulateCommand:
    def test_summary_and_reproducibility(self, tmp_path):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        args = ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "4",
                "--runs", "500", "--seed", "5"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        s = doc["summary"]
        assert abs(s["z_score"]) <= 4.0
        assert s["max_stack_depth"] <= 5
        assert doc["meta"]["seed"] == 5

    def test_round_trip_from_embedded_config(self, tmp_path):
        # the meta block alone must suffice to reproduce the payload
        out1 = tmp_path / "a.json"
        assert run_cli(["simulate", "--d", "3", "--delta0", "0.4", "--levels", "4",
                        "--runs", "200", "--seed", "11", "--out", str(out1)]) == 0
        meta = json.loads(out1.read_text())["meta"]
        p = meta["params"]
        out2 = tmp_path / "b.json"
        assert run_cli(["simulate", "--d", str(p["d"]), "--delta0", str(p["delta0"]),
                        "--levels", str(p["levels"]), "--runs", str(p["runs"]),
                        "--jobs", str(p["jobs"]), "--seed", str(meta["seed"]),
                        "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_per_run_csv(self, tmp_path):
        out = tmp_path / "s.json"
        per_run = tmp_path / "runs.csv"
        assert run_cli(["simulate", "--d", "2", "--delta0", "0.3", "--levels", "3",
                        "--runs", "50", "--out", str(out), "--per-run", str(per_run)]) == 0
        _, header, rows = read_csv(per_run)
        assert header == ["run", "copies_consumed"]
        assert len(rows) == 50

    def test_out_and_per_run_must_differ(self, tmp_path, capsys):
        # one file for both once held the CSV over the tail of the JSON
        out = tmp_path / "s.json"
        args = ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "2", "--runs", "3"]
        for per_run in (out, tmp_path / "." / "s.json"):
            assert run_cli(args + ["--out", str(out), "--per-run", str(per_run)]) == 1
            assert capsys.readouterr().err.startswith("error: --out and --per-run")
            assert not out.exists()

    def test_hard_link_is_the_same_file(self, tmp_path, capsys):
        # realpaths differ for a hard link, which once took the CSV and then the JSON
        out, per_run = tmp_path / "s.json", tmp_path / "runs.csv"
        out.write_bytes(b"earlier bytes\n")
        os.link(out, per_run)
        before = tree(tmp_path)
        args = ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "2", "--runs", "3"]
        assert run_cli(args + ["--out", str(out), "--per-run", str(per_run)]) == 1
        assert capsys.readouterr().err.startswith("error: --out and --per-run")
        assert tree(tmp_path) == before

    def test_per_run_rows_are_the_summary_copies(self, tmp_path):
        per_run = tmp_path / "runs.csv"
        assert run_cli(["simulate", "--d", "2", "--delta0", "0.3", "--levels", "3",
                        "--runs", "50", "--seed", "5", "--out", str(tmp_path / "s.json"),
                        "--per-run", str(per_run)]) == 0
        summary = streaming.monte_carlo(0.3, 2, 3, 50, Seed(5))
        rows = [[str(i), str(c)] for i, c in enumerate(summary.copies.tolist())]
        assert read_csv(per_run)[2] == rows

    @pytest.mark.parametrize("flag, other", [("--out", "--per-run"), ("--per-run", "--out")])
    def test_empty_path_is_refused(self, tmp_path, monkeypatch, capsys, flag, other):
        # an empty --per-run was once dropped: exit 0, and no per-run CSV
        monkeypatch.chdir(tmp_path)
        args = ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "2", "--runs", "3"]
        for extra in ([], [other, "kept"]):
            assert run_cli(args + [flag, "", *extra]) == 1
            assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")
            assert tree(tmp_path) == {}

    @pytest.mark.parametrize(
        "bad, earlier",
        [("--out", b"earlier bytes\n"), ("--per-run", b"earlier bytes\n"),
         ("--out", None), ("--per-run", None)],
        ids=["--out", "--per-run", "--out-new", "--per-run-new"],
    )
    def test_bad_path_leaves_the_other_output_unchanged(self, tmp_path, bad, earlier):
        # both outputs are opened before the run, and a file this call
        # created is removed when the other cannot be opened
        kept = tmp_path / "kept"
        if earlier:
            kept.write_bytes(earlier)
        before = tree(tmp_path)
        other = "--per-run" if bad == "--out" else "--out"
        assert run_cli(["simulate", "--d", "2", "--delta0", "0.3", "--levels", "2",
                        "--runs", "3", bad, str(tmp_path / "no" / "such" / "x"),
                        other, str(kept)]) == 1
        assert tree(tmp_path) == before

    def test_existing_outputs_are_overwritten(self, tmp_path):
        out, per_run = tmp_path / "s.json", tmp_path / "runs.csv"
        args = ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "3", "--runs", "50",
                "--out", str(out), "--per-run", str(per_run)]
        assert run_cli(args) == 0
        first = out.read_bytes(), per_run.read_bytes()
        out.write_bytes(b"x" * 10**5)
        assert run_cli(args) == 0
        assert (out.read_bytes(), per_run.read_bytes()) == first

    def test_payload_depth_is_levels_plus_one(self, tmp_path):
        # the n + 1 memory bound, which every run reaches
        for levels in (1, 3, 6):
            out = tmp_path / f"{levels}.json"
            assert run_cli(["simulate", "--d", "2", "--delta0", "0.3", "--levels", str(levels),
                            "--runs", "10", "--out", str(out)]) == 0
            assert json.loads(out.read_text())["summary"]["max_stack_depth"] == levels + 1

    def test_jobs_split_on_stream_boundaries(self, tmp_path):
        # three seed streams, the last one partial: --jobs 2 gives the
        # summary and per-run rows of --jobs 1, and echoes its own --jobs
        got = {}
        for jobs in ("1", "2"):
            out, per_run = tmp_path / f"{jobs}.json", tmp_path / f"{jobs}.csv"
            assert run_cli(["simulate", "--d", "2", "--delta0", "0.3", "--levels", "3",
                            "--runs", "2500", "--seed", "8", "--jobs", jobs,
                            "--out", str(out), "--per-run", str(per_run)]) == 0
            doc = json.loads(out.read_text())
            assert doc["meta"]["schema"] == "simulate-v2"
            assert doc["meta"]["params"]["jobs"] == int(jobs)
            got[jobs] = (doc["summary"], read_csv(per_run)[1:])
        assert got["1"] == got["2"]
        assert len(got["1"][1][1]) == 2500

    def test_infinite_dimension_rejected(self):
        assert run_cli(["simulate", "--d", "inf", "--delta0", "0.3",
                        "--levels", "3"]) == 1


class TestVerifyCommand:
    def test_pass_and_determinism(self, tmp_path):
        out1 = tmp_path / "v1.json"
        out2 = tmp_path / "v2.json"
        args = ["verify", "--d", "3", "--trials", "25", "--seed", "9"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rep = json.loads(out1.read_text())["report"]
        assert rep["pass"] is True
        assert rep["max_prob_deviation"] <= 1e-10

    def test_dimension_cap_schema_and_deviations(self, tmp_path):
        out = tmp_path / "v16.json"
        assert run_cli(["verify", "--d", "16", "--trials", "20", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["schema"] == "verify-v4"
        rep = doc["report"]
        assert rep["pass"] is True
        assert rep["max_prob_deviation"] <= 1e-13
        assert rep["max_trace_distance"] <= 1e-13

    def test_dimension_cap_is_usage_error(self):
        assert run_cli(["verify", "--d", "17", "--trials", "5"]) == 1

    def test_bytes_do_not_depend_on_the_stack_size(self, monkeypatch, capsys):
        # the trials are swap-tested in stacks of at most cli._VERIFY_CHUNK
        argv = ["verify", "--d", "5", "--trials", "10", "--seed", "2"]
        outputs = []
        for chunk in (1, 3, 10, cli._VERIFY_CHUNK):
            monkeypatch.setattr(cli, "_VERIFY_CHUNK", chunk)
            assert run_cli(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1

    def test_impossible_tolerance_fails_validation(self, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--d", "2", "--trials", "10", "--tol", "1e-30",
                        "--out", str(out)])
        assert code == 2
        assert json.loads(out.read_text())["report"]["pass"] is False


class TestSimonCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "simon.json"
        assert run_cli(["simon", "--m", "2", "--delta", "0.4", "--trials", "15",
                        "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        entry = doc["per_m"]["2"]
        assert entry["success_rate"] >= 0.8
        assert entry["mean_queries"] > 0

    def test_budget_exhaustion_exit_code(self, tmp_path):
        out = tmp_path / "simon2.json"
        code = run_cli(["simon", "--m", "3", "--delta", "0.5", "--trials", "5",
                        "--budget", "1", "--out", str(out)])
        assert code == 3

    def test_per_m_table(self, tmp_path):
        out = tmp_path / "simon3.json"
        assert run_cli(["simon", "--m", "2,3", "--delta", "0.4", "--trials", "8",
                        "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["per_m"]) == {"2", "3"}

    def test_default_eps_over_delta_names_both_values(self, capsys):
        # no --eps: the default 1/(10m) = 0.05 at m = 2 is not below --delta
        assert run_cli(["simon", "--m", "2", "--delta", "0.04", "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: eps_target must lie in (0, oracle_delta = 0.04), got 0.05\n"

    def test_one_walk_per_size(self, monkeypatch, capsys):
        calls = []
        real = applications.iterations_to

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(applications, "iterations_to", counted)
        applications._purifier.cache_clear()
        try:
            assert run_cli(["simon", "--m", "2,3", "--trials", "20"]) == 0
        finally:
            applications._purifier.cache_clear()
        # one walk per register size 4^m, shared by all 20 trials of it
        assert [str(args[1]) for args in calls] == ["16", "64"]


class TestMixednessCommand:
    def test_both_classes(self, tmp_path):
        out = tmp_path / "mix.json"
        assert run_cli(["mixedness", "--d", "64", "--eta", "0.5", "--trials", "60",
                        "--seed", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        classes = doc["classes"]
        assert set(classes) == {"mixed", "far"}
        assert classes["far"]["error_rate"] <= 0.05
        assert classes["mixed"]["error_rate"] <= 0.1
        hist = classes["mixed"]["pass_count_histogram"]
        assert sum(hist.values()) == 60

    def test_one_walk_per_command(self, monkeypatch, capsys):
        calls = []
        real = applications.orbit

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(applications, "orbit", counted)
        applications.mixedness_top_pass_prob.cache_clear()
        try:
            assert run_cli(["mixedness", "--d", "3", "--eta", "0.01", "--trials", "20"]) == 0
        finally:
            applications.mixedness_top_pass_prob.cache_clear()
        # the far case walks its orbit once; the mixed case (delta = 1) not at all
        assert len(calls) == 1
        assert calls[0][0] == 1 - 0.01 / 2

    @pytest.mark.parametrize("eta", ["5e-324", "1e-300"])
    def test_tiny_eta_refused_in_one_short_line(self, eta, capsys):
        # the depth is checked against ITERATION_CAP before it is rounded
        assert run_cli(["mixedness", "--eta", eta, "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: eta = {float(eta)} needs ") and "ITERATION_CAP" in err
        assert len(err) < 200

    def test_help_states_default_misread_rate(self, capsys):
        # a maximally mixed rep passes with probability (1 + 1/d)/2, and a
        # trial is misread when at least tau * reps of its reps pass
        args = build_parser().parse_args(["mixedness"])
        p = recurrence.success_prob(1.0, args.d)
        k0 = math.ceil(args.tau * args.reps)
        tail = sum(
            math.comb(args.reps, k) * p**k * (1 - p) ** (args.reps - k)
            for k in range(k0, args.reps + 1)
        )
        with pytest.raises(SystemExit):
            main(["mixedness", "--help"])
        assert f"probability {tail:.4f}" in " ".join(capsys.readouterr().out.split())

    def test_tau_default_is_the_library_threshold(self):
        # cli states the default itself, so building the parser loads no layer
        assert build_parser().parse_args(["mixedness"]).tau == applications.DEFAULT_THRESHOLD
        assert recurrence.success_prob(1.0, 2) == 3 / 4
        # --reps 20 at tau 0.875 misreads from 18 passes up
        assert math.ceil(0.875 * 20) == 18
        tail = sum(math.comb(20, k) * 3**k for k in range(18, 21)) / 4**20
        assert round(tail, 4) == 0.0913

    def test_single_class(self, tmp_path):
        out = tmp_path / "mix2.json"
        assert run_cli(["mixedness", "--case", "far", "--trials", "10",
                        "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert list(doc["classes"]) == ["far"]


# flags that say where or in what form the output goes, not what it holds;
# the meta block does not echo them, so a re-run passes them again
OUTPUT_FLAGS = ("--format", "--per-run")


def embedded_config(text):
    """The (params, seed) an output embeds: in its JSON meta, or its '# ' lines."""
    if text.startswith("{"):
        meta = json.JSONDecoder().raw_decode(text)[0]["meta"]
        return meta["params"], meta["seed"]
    meta = dict(line[2:].split(": ", 1) for line in text.splitlines() if line.startswith("# "))
    return json.loads(meta["params"]), int(meta["seed"])


class TestRoundTrip:
    @pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
    def test_embedded_config_reproduces_output(self, argv, capsys):
        # the meta block alone must suffice to reproduce the output
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        params, seed = embedded_config(first)
        rerun = [argv[0], "--seed", str(seed)]
        for key, value in params.items():
            if isinstance(value, list):
                value = ",".join(map(str, value))
            if value is not None:
                rerun += [f"--{key.replace('_', '-')}", str(value)]
        for flag in OUTPUT_FLAGS:
            if flag in argv:
                rerun += argv[argv.index(flag):][:2]
        assert run_cli(rerun) == 0
        assert capsys.readouterr().out == first


class TestUsageErrors:
    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert run_cli(["region", "--bogus", "1"]) == 1

    def test_missing_required(self):
        assert run_cli(["bounds", "--d", "2"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["simon", "--m", "3", "--trials", "0"],
            ["mixedness", "--trials", "0"],
            ["verify", "--trials", "0"],
            ["region", "--resolution", "-1"],
            ["region", "--resolution", "0"],
            ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "2", "--jobs", "0"],
            ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "2", "--runs", "0"],
            ["mixedness", "--reps", "0"],
            ["simon", "--budget", "-3"],
        ],
    )
    def test_degenerate_count_rejected(self, argv, capsys):
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestOutputPaths:
    # main opens every output before the command runs, and removes the files
    # it created if anything raises
    LAYER_ENTRY = {
        "recurrence": (recurrence, "orbit", ["recurrence"]),
        "bounds": (recurrence, "iterations_to", ["bounds", "--d", "2", "--delta0", "0.5",
                                                 "--eps", "0.01"]),
        "region": (gadget, "region_boundary", ["region"]),
        "simulate": (streaming, "monte_carlo", ["simulate", "--d", "2", "--delta0", "0.3",
                                                "--levels", "2"]),
        "verify": (dense_oracle, "random_pure_state", ["verify"]),
        "simon": (applications, "solve_simon", ["simon"]),
        "mixedness": (applications, "mixedness_test", ["mixedness"]),
    }

    @pytest.mark.parametrize("command", LAYER_ENTRY)
    def test_bad_out_fails_before_the_layer_runs(self, command, tmp_path, monkeypatch, capsys):
        owner, name, argv = self.LAYER_ENTRY[command]

        def layer_ran(*args, **kwargs):
            raise AssertionError(f"{command} ran {name} before opening --out")

        monkeypatch.setattr(owner, name, layer_ran)
        out = tmp_path / "missing" / "x"
        assert run_cli([*argv, "--out", str(out)]) == 1
        missing = f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert capsys.readouterr().err == missing
        assert tree(tmp_path) == {}

    @pytest.mark.parametrize("earlier", [None, b"earlier bytes\n"], ids=["new", "existing"])
    def test_usage_error_leaves_out_as_it_was(self, tmp_path, earlier, capsys):
        out = tmp_path / "new.csv"
        if earlier:
            out.write_bytes(earlier)
        before = tree(tmp_path)
        assert run_cli(["region", "--resolution", "1000000", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --resolution must be at most")
        assert tree(tmp_path) == before


class TestOverflow:
    # log-space bounds are not in yet; until then an overflow is a usage
    # error with a message, not a traceback
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--d", "100", "--delta0", "0.999", "--eps", "1e-2"],
            ["bounds", "--d", "1000", "--delta0", "0.9999", "--eps", "1e-3"],
            ["bounds", "--d", "100", "--delta0", "0.999", "--eps", "1e-2", "--format", "json"],
        ],
    )
    def test_overflow_is_usage_error(self, argv, capsys):
        assert run_cli(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: numeric overflow")
        assert "Traceback" not in err

    def test_underflow_is_usage_error(self, capsys):
        # (1 - delta0) eps^2 / 2 squared underflows to 0 in the tomography
        # estimate; the command must not leak the ZeroDivisionError
        assert run_cli(["bounds", "--d", "2", "--delta0", "0.9", "--eps", "1e-300"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: numeric error: float division by zero")
        assert "Traceback" not in err


class TestOutOfMemory:
    # a count too large to allocate raises numpy's MemoryError subclass deep
    # in a command (mixedness --reps 10000000000, say); raised here by a
    # stand-in, so nothing is allocated
    @pytest.mark.parametrize(
        "owner, name, argv",
        [
            (applications, "mixedness_test", ["mixedness", "--trials", "1"]),
            (streaming, "monte_carlo",
             ["simulate", "--d", "2", "--delta0", "0.01", "--levels", "1"]),
        ],
        ids=["mixedness", "simulate"],
    )
    def test_memory_error_is_usage_error(self, owner, name, argv, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(owner, name, no_memory)
        assert run_cli(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 74.5 GiB\n"


class TestNoHang:
    # each would run for hours; the copy cap must refuse it before any run
    @pytest.mark.parametrize("levels", ["30", "2000"])
    def test_huge_simulation_refused_at_once(self, levels):
        argv = ["simulate", "--d", "2", "--delta0", "0.3", "--levels", levels, "--runs", "1"]
        proc = run_cli_process(argv, timeout=20)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: 1 runs expect at least 2^")
        assert "MAX_EXPECTED_COPIES" in proc.stderr


# Edge arguments for every subcommand.  HANG_CASES each ran for hours, or
# leaked a MemoryError, before their caps; each must now exit 1 at once.
HANG_CASES = [
    ["recurrence", "--d", "2", "--delta0", "0.5", "--iters", "1000000000"],
    ["region", "--resolution", "1000000000"],
    ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "2000", "--runs", "1"],
    # under the copy cap (8 x 10^8 copies), over the run cap
    ["simulate", "--d", "2", "--delta0", "0.01", "--levels", "1", "--runs", "400000000"],
    ["simon", "--m", "2", "--eps", "1e-300"],
    ["mixedness", "--d", "2", "--eta", "1e-9", "--trials", "1"],
    ["mixedness", "--case", "mixed", "--eta", "1e-7", "--trials", "2"],
]
# degenerate arguments, and an unwritable --per-run path; each must exit 1
# with an error line that names the argument
BAD_ARG_CASES = [
    (["simon", "--m", ""], "argument --m: "),
    (["simon", "--m", "0"], "argument --m: "),
    (["simon", "--m", "1"], "argument --m: "),
    (["simon", "--m", "64", "--trials", "1"], "argument --m: "),
    # per_m is keyed by size, so a repeat would overwrite a result
    (["simon", "--m", "2,3,2"], "argument --m: "),
    (["recurrence", "--d", ""], "argument --d: "),
    (["region", "--d-list", ""], "argument --d-list: "),
    # each dimension's rows would be written twice
    (["recurrence", "--d", "2,2"], "argument --d: "),
    (["region", "--d-list", "inf,infinite"], "argument --d-list: "),
    (["verify", "--tol", "-1"], "argument --tol: "),
    (["verify", "--tol", "nan"], "argument --tol: "),
    (["mixedness", "--tau", "2"], "threshold "),
    (["mixedness", "--tau", "nan"], "threshold "),
    (["mixedness", "--case", "mixed", "--eta", "1e-7", "--trials", "2"], "eta"),
    (["mixedness", "--case", "mixed", "--eta", "5e-324", "--trials", "2"], "eta"),
    (["simulate", "--d", "2", "--delta0", "0.3", "--levels", "0"], "argument --levels: "),
    (["simulate", "--d", "2", "--delta0", "0.3", "--levels", "-1"], "argument --levels: "),
    (
        ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "2", "--runs", "3",
         "--per-run", "/nonexistent/x.csv"],
        "/nonexistent/x.csv",
    ),
    # --jobs only where something reads or sends it: simulate, verify, simon
    (["recurrence", "--jobs", "2"], "unrecognized arguments"),
    (["bounds", "--d", "2", "--delta0", "0.9", "--eps", "1e-2", "--jobs", "2"],
     "unrecognized arguments"),
    (["region", "--jobs", "2"], "unrecognized arguments"),
    (["mixedness", "--jobs", "2"], "unrecognized arguments"),
]
COMMANDS = ["recurrence", "bounds", "region", "simulate", "verify", "simon", "mixedness"]
HELP_CASES = [[command, "--help"] for command in COMMANDS]
EDGE_CASES = [
    ["recurrence", "--iters", "-1"],
    ["recurrence", "--d", "2", "--delta0", "1.5"],
    ["bounds", "--d", "2", "--delta0", "0.9", "--eps", "1e-300"],
    ["bounds", "--d", "2", "--delta0", "0.5", "--eps", "0"],
    ["bounds", "--d", "inf", "--delta0", "0.5", "--eps", "0.1"],
    ["region", "--resolution", "0"],
    ["region", "--d-list", "1"],
    ["simulate", "--d", "1", "--delta0", "0.3", "--levels", "2"],
    ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "2", "--runs", "-5"],
    ["verify", "--d", "17"],
    ["verify", "--d", "1"],
    ["verify", "--trials", "0"],
    *(argv for argv, _ in BAD_ARG_CASES),
    ["simon", "--m", "2", "--delta", "0"],
    ["simon", "--m", "2", "--budget", "0"],
    ["mixedness", "--eta", "0"],
    ["mixedness", "--reps", "-1"],
    *HELP_CASES,
]


class TestFuzz:
    # a command in both lists runs once, under both lists' checks
    @pytest.mark.parametrize(
        "argv", HANG_CASES + [a for a in EDGE_CASES if a not in HANG_CASES], ids=" ".join
    )
    def test_documented_exit_without_traceback(self, argv):
        proc = run_cli_process(argv, timeout=20)
        assert proc.returncode in {0, 1, 2, 3}
        assert "Traceback" not in proc.stderr
        if proc.returncode == 1:
            assert proc.stdout == ""  # arguments are checked before the first byte
        if argv in HELP_CASES:
            assert proc.returncode == 0
            assert proc.stdout.startswith(f"usage: purestream {argv[0]} ")
        if argv in HANG_CASES:
            assert proc.returncode == 1
            assert proc.stderr.startswith("error: ")
        for bad, name in BAD_ARG_CASES:
            if argv == bad:
                assert proc.returncode == 1
                error = proc.stderr.splitlines()[-1]
                assert error.startswith("error: ") and name in error


# Domain search: each command but bounds on arguments drawn from its valid
# domain, in process.  Sizes are bounded so that a draw costs milliseconds:
# a count is either small or past its cap, which refuses it at once.
CAPS = ("ITERATION_CAP", "MAX_EXPECTED_COPIES", "MAX_RUNS", "MAX_DIM", "MAX_RESOLUTION",
        "MAX_SIMON_M")
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
SEEDS = st.integers(0, 2**64 - 1)
DIM_LISTS = st.lists(
    st.one_of(st.integers(2, 10**18), st.just("inf")), min_size=1, max_size=3, unique=True
).map(lambda dims: ",".join(map(str, dims)))


def command(name, **flags):
    """The argv of command `name`, each --flag drawn from its strategy."""
    return st.fixed_dictionaries(flags).map(lambda drawn: [name, *itertools.chain.from_iterable(
        (f"--{flag.replace('_', '-')}", str(value)) for flag, value in drawn.items()
    )])


@st.composite
def simon_argv(draw):
    m = draw(st.integers(2, 6))
    delta = draw(UNIT)
    # eps = delta_k, reached at level n <= k: at most 4^6 copies a sample at
    # k <= 6, and past MAX_EXPECTED_COPIES at n >= 30, which some draws try
    k = draw(st.integers(30, 2000) if draw(st.integers(0, 3)) == 3 else st.integers(1, 6))
    deltas = recurrence.iterate(delta, 4**m, k).deltas
    eps = deltas[-1]
    assume(0.0 < eps < delta and (k <= 6 or deltas.index(eps) >= 30))
    sizes = str(m)
    if draw(st.integers(0, 4)) == 4:  # some draws list a size past MAX_SIMON_M too
        sizes += f",{draw(st.integers(cli.MAX_SIMON_M + 1, 10**6))}"
    return draw(command("simon", m=st.just(sizes), delta=st.just(delta), eps=st.just(eps),
                        trials=st.integers(1, 2), budget=st.integers(1, 20), seed=SEEDS))


DOMAINS = {
    "recurrence": command(
        "recurrence", d=DIM_LISTS, delta0=UNIT,
        iters=st.one_of(st.integers(0, 200), st.integers(recurrence.ITERATION_CAP + 1, 10**12)),
        seed=SEEDS,
    ),
    "region": command(
        "region", d_list=DIM_LISTS,
        resolution=st.one_of(st.integers(1, 200), st.integers(cli.MAX_RESOLUTION + 1, 10**12)),
        seed=SEEDS,
    ),
    "simulate": command(
        "simulate", d=st.integers(2, 10**9), delta0=UNIT,
        levels=st.one_of(st.integers(1, 5), st.integers(30, 10**12)),
        runs=st.one_of(st.integers(1, 100), st.integers(streaming.MAX_RUNS + 1, 10**12)),
        seed=SEEDS,
    ),
    "verify": command(
        "verify", d=st.integers(2, dense_oracle.MAX_DIM + 3), trials=st.integers(1, 6),
        tol=st.floats(0.0, allow_infinity=False), seed=SEEDS,
    ),
    "simon": simon_argv(),
    # an eta below 1e-6 needs over ITERATION_CAP levels, one in [1e-3, 1) at most 2,030
    "mixedness": command(
        "mixedness", d=st.integers(2, 10**9),
        eta=st.one_of(st.floats(1e-3, 1.0, exclude_max=True),
                      st.floats(0.0, 1e-6, exclude_min=True)),
        case=st.sampled_from(["mixed", "far", "both"]), trials=st.integers(1, 5),
        reps=st.integers(1, 50), tau=UNIT, seed=SEEDS,
    ),
}
# the exit codes, besides 0 and a refusal past a cap, that a command may give
OTHER_EXITS = {"verify": {cli.EXIT_VALIDATION}, "simon": {cli.EXIT_BUDGET}}


class TestDomainSearch:
    @pytest.mark.parametrize("name", DOMAINS)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_documented_exit(self, name, data, capsys):
        argv = data.draw(DOMAINS[name])
        code = run_cli(argv)  # an exception that escapes main fails the test
        out, err = capsys.readouterr()
        if code == cli.EXIT_USAGE:
            error = err.splitlines()[-1]
            assert out == "" and error.startswith("error: ")
            assert any(cap in error for cap in CAPS), error
        else:
            assert code in {cli.EXIT_OK, *OTHER_EXITS.get(name, ())}, err


class TestParserReuse:
    VERIFY = ["verify", "--d", "4", "--trials", "5", "--seed", "3"]
    SIMULATE = ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "3",
                "--runs", "20", "--seed", "4"]

    @staticmethod
    def fresh_process_output(argv):
        done = run_cli_process(argv, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_one_parser_serves_calls_in_sequence(self, capsys):
        assert build_parser() is build_parser()
        assert run_cli(["simulate", "--d", "2", "--bogus"]) == 1
        capsys.readouterr()
        outputs = []
        for argv in (self.VERIFY, self.SIMULATE):
            assert run_cli(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == [self.fresh_process_output(argv)
                           for argv in (self.VERIFY, self.SIMULATE)]


# In a fresh interpreter: the import and the parser load only the cli,
# every command that needs no numpy leaves it and the stochastic layers
# unloaded, and a golden simulate then loads them on demand and still gives
# its golden bytes.
COLD_START = """
import contextlib, hashlib, io, json, sys
from purestream import cli


def loaded():
    # the package's modules, and those that building the parser does not need
    names = [m for m in sys.modules if m.split(".")[0] == "purestream"]
    return sorted(names + [m for m in ("dataclasses", "inspect", "numpy") if m in sys.modules])


cli.build_parser()
report = {"import + build_parser": [0, None, loaded()]}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # --help and --version exit from argparse
            rc = exc.code
    report[" ".join(argv)] = [rc, hashlib.sha256(out.getvalue().encode()).hexdigest(), loaded()]
print(json.dumps(report))
"""


def cold_start(argvs):
    """Run the argvs in turn in one fresh interpreter, after the import and the parser.

    Each maps to [exit code, stdout sha256, modules loaded so far], and
    "import + build_parser" to the modules that those two load.
    """
    done = run_python(["-c", COLD_START, json.dumps(argvs)], timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestColdStart:
    NUMPY_FREE = {
        ("recurrence",): 0,
        ("bounds", "--d", "2", "--delta0", "0.9", "--eps", "1e-2"): 0,
        ("bounds", "--format", "json", "--d", "8", "--delta0", "0.95", "--eps", "1e-3"): 0,
        ("region",): 0,
        ("--version",): 0,
        ("--help",): 0,
        ("bounds", "--d", "2"): 1,  # a usage error: --delta0 and --eps are missing
    }

    # the analytic layers: every module that a NUMPY_FREE command may load
    ANALYTIC = {
        "purestream", "purestream.cli", "purestream.core", "purestream.gadget",
        "purestream.recurrence", "dataclasses", "inspect",
    }

    def test_numpy_loads_only_on_demand(self):
        case = next(c for c in json.loads(GOLDEN.read_text()) if c["argv"][0] == "simulate")
        report = cold_start([*map(list, self.NUMPY_FREE), case["argv"]])
        assert report.pop("import + build_parser") == [0, None, ["purestream", "purestream.cli"]]
        rc, sha, modules = report.pop(" ".join(case["argv"]))
        assert [rc, sha] == [0, case["sha256"]] and "numpy" in modules
        assert {argv: rc for argv, (rc, _, _) in report.items()} == {
            " ".join(argv): rc for argv, rc in self.NUMPY_FREE.items()
        }
        for argv, (_, _, modules) in report.items():
            assert set(modules) <= self.ANALYTIC, argv

    def test_verify_loads_only_the_oracle_and_the_gadget(self):
        argv = ["verify", "--d", "2", "--trials", "3"]
        rc, _, modules = cold_start([argv])[" ".join(argv)]
        assert rc == 0
        assert set(modules) == {
            "purestream", "purestream.cli", "purestream.core", "purestream.dense_oracle",
            "purestream.gadget", "dataclasses", "inspect", "numpy",
        }
