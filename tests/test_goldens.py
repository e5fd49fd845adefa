"""Golden outputs: per-seed stack-machine runs, CLI output bytes and demo stdout.

The fixtures in tests/golden/ were recorded by tests/golden/record.py on a
reference commit.  They pin every draw the stack machine consumes, so a
faster loop or a new outcome source must reproduce them exactly.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from golden.record import DEMOS, demo_sha256, machine_record
from lemmas import forced_draws
from purestream import cli
from purestream.core import Seed
from purestream.streaming import (
    StackMachine,
    purify_recursive,
    purify_streaming,
    seeded_draws,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = json.loads((GOLDEN / "stack_machine.json").read_text())
CLI = json.loads((GOLDEN / "cli_sha256.json").read_text())
DEMO = json.loads((GOLDEN / "demo_sha256.json").read_text())


@pytest.mark.parametrize("point", RUNS["seeded"], ids=lambda p: str(p["point"]))
def test_seeded_runs(point):
    delta0, d, n = point["point"]
    for i, want in enumerate(point["runs"]):
        draws = seeded_draws(Seed(point["seed"], i).generator())
        machine = StackMachine.for_protocol(delta0, d, n)
        assert machine_record(machine, draws) == want, i


def test_forced_runs():
    for case in RUNS["forced"]:
        delta0, d, n = case["point"]
        outcomes = forced_draws(bit == "1" for bit in case["outcomes"])
        got = machine_record(StackMachine.for_protocol(delta0, d, n), outcomes)
        want = {k: case[k] for k in got}
        assert got == want, case["point"]


def test_shared_generator_block_schedule():
    # consecutive machines on one generator drop their unused draws, so
    # the generator's position after each run pins the block schedule
    rng = Seed(RUNS["shared"]["seed"]).generator()
    for case in RUNS["shared"]["runs"]:
        delta0, d, n = case["point"]
        got = machine_record(StackMachine.for_protocol(delta0, d, n), seeded_draws(rng))
        got["next_draw"] = float(rng.random())
        assert got == {k: case[k] for k in got}, case["point"]


def test_machine_rerun_resets_artifacts():
    # a second run continues on the same draws and matches a fresh machine there
    machine = StackMachine.for_protocol(0.6, 8, 6)
    shared = seeded_draws(Seed(701, 0).generator())
    first = machine_record(machine, shared)
    second = machine_record(machine, shared)
    outcomes = seeded_draws(Seed(701, 0).generator())
    StackMachine.for_protocol(0.6, 8, 6).run(outcomes)
    assert first == RUNS["seeded"][1]["runs"][0]
    assert second == machine_record(StackMachine.for_protocol(0.6, 8, 6), outcomes)


# n = 1, the golden points' (0.6, 8, 6), and two long runs (~2,300 and ~3,400
# expected copies)
@pytest.mark.parametrize(
    "point", [(0.6, 8, 1), (0.6, 8, 6), (0.95, 2, 8), (0.9, 64, 6)], ids=str
)
def test_streaming_equals_recursive_per_seed(point):
    # both consume draws in the same depth-first order
    mismatches = sum(
        purify_streaming(*point, Seed(707, i)) != purify_recursive(*point, Seed(707, i))
        for i in range(300)
    )
    assert mismatches == 0


@pytest.mark.parametrize("case", CLI, ids=lambda c: " ".join(c["argv"][:1] + c["argv"][-2:]))
def test_cli_bytes(case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(case["argv"]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == case["sha256"]


def test_every_demo_is_recorded():
    assert [case["demo"] for case in DEMO] == [path.name for path in DEMOS]


@pytest.mark.parametrize("case", DEMO, ids=lambda c: c["demo"])
def test_demo_bytes(case):
    path = next(path for path in DEMOS if path.name == case["demo"])
    assert demo_sha256(path) == case["sha256"]
