"""Record the stack-machine, CLI and demo goldens that tests/test_goldens.py checks.

    PYTHONPATH=src python tests/golden/record.py

Run it on a reference commit only, to pin that commit's behaviour; never
re-record to make a failing golden test pass.  A change that moves these
bytes on purpose bumps the CLI schema tag and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from purestream import cli
from purestream.core import Seed
from purestream.streaming import StackMachine, seeded_draws

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
sys.path.insert(0, str(HERE.parent))  # tests/, home of the test-only lemmas module
from lemmas import forced_draws

# (delta0, d, n, seed key): 40 runs each on Seed(key, i).generator()
SEEDED_POINTS = [
    (0.3, 2, 5, 700),
    (0.6, 8, 6, 701),
    (0.5, 2, 3, 702),
    (0.8, 4, 1, 703),
    (0.55, 3, 4, 704),
]
SEEDED_RUNS = 40

# (delta0, d, n): each driven by FORCED_SEQS random rigged outcome lists
FORCED_POINTS = [(0.3, 2, 1), (0.3, 2, 2), (0.5, 3, 3), (0.6, 8, 4)]
FORCED_SEQS = 6

# one generator shared by consecutive machines, as solve_simon does; the
# draw after each run pins the outcome source's block schedule, and the
# n = 13 point (~2 x 10^4 draws) runs into the largest, capped block
SHARED_POINTS = [(0.6, 8, 6), (0.3, 2, 5), (0.6, 2, 13), (0.6, 8, 6)]
SHARED_SEED = 705

CLI_CASES = [
    ["simulate", "--d", "8", "--delta0", "0.6", "--levels", "6", "--runs", "300",
     "--seed", "501"],
    ["simulate", "--d", "8", "--delta0", "0.6", "--levels", "6", "--runs", "300",
     "--seed", "501", "--jobs", "2"],
    ["simulate", "--d", "2", "--delta0", "0.3", "--levels", "5", "--runs", "200",
     "--seed", "7", "--per-run", "-"],
    ["simon", "--m", "2,3,4", "--delta", "0.5", "--trials", "6", "--budget", "100",
     "--seed", "11"],
    ["mixedness", "--d", "2", "--trials", "20", "--reps", "10", "--seed", "5"],
    ["recurrence", "--d", "20,50,100,inf", "--delta0", "0.99", "--iters", "60"],
    # bounds at the README point, a low-noise and a high-noise point, as
    # text and as JSON (the last two arguments make each test id)
    *(
        ["bounds", "--d", d, "--delta0", delta0, "--eps", eps]
        for d, delta0, eps in (("2", "0.9", "1e-2"), ("3", "0.1", "1e-6"), ("8", "0.95", "1e-3"))
    ),
    *(
        ["bounds", "--format", "json", "--eps", eps, "--delta0", delta0, "--d", d]
        for d, delta0, eps in (("2", "0.9", "1e-2"), ("3", "0.1", "1e-6"), ("8", "0.95", "1e-3"))
    ),
    # the default --d-list, which includes d = inf
    ["region", "--resolution", "200"],
    ["region", "--d-list", "2,3,6", "--resolution", "20"],
    ["verify", "--seed", "9", "--trials", "200", "--d", "5"],
    ["verify", "--seed", "9", "--trials", "200", "--d", "16"],
]


def machine_record(machine: StackMachine, outcomes) -> dict:
    st = machine.run(outcomes)
    return {
        "stats": [st.copies_consumed, st.swap_attempts],
        "level_attempts": list(machine.level_attempts),
        "level_successes": list(machine.level_successes),
        "first_top_success": machine.level_attempts[-1] == 1,
    }


def forced_sequences(n_seqs: int) -> list[list[bool]]:
    rng = np.random.default_rng(706)
    return [(rng.random(400) < 0.7).tolist() for _ in range(n_seqs)]


def record_runs() -> dict:
    seeded = []
    for delta0, d, n, key in SEEDED_POINTS:
        runs = [
            machine_record(
                StackMachine.for_protocol(delta0, d, n), seeded_draws(Seed(key, i).generator())
            )
            for i in range(SEEDED_RUNS)
        ]
        seeded.append({"point": [delta0, d, n], "seed": key, "runs": runs})
    forced = []
    for delta0, d, n in FORCED_POINTS:
        for seq in forced_sequences(FORCED_SEQS):
            rec = machine_record(StackMachine.for_protocol(delta0, d, n), forced_draws(seq))
            bits = "".join("1" if x else "0" for x in seq)
            forced.append({"point": [delta0, d, n], "outcomes": bits, **rec})
    rng = Seed(SHARED_SEED).generator()
    shared = []
    for delta0, d, n in SHARED_POINTS:
        rec = machine_record(StackMachine.for_protocol(delta0, d, n), seeded_draws(rng))
        shared.append({"point": [delta0, d, n], **rec, "next_draw": float(rng.random())})
    return {"seeded": seeded, "forced": forced, "shared": {"seed": SHARED_SEED, "runs": shared}}


def cli_output(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, (argv, rc)
    return buf.getvalue()


def record_cli() -> list[dict]:
    return [
        {"argv": argv, "sha256": hashlib.sha256(cli_output(argv).encode()).hexdigest()}
        for argv in CLI_CASES
    ]


def demo_sha256(path: Path) -> str:
    """The sha256 of a demo's stdout, run as a script in a fresh interpreter on src/."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(path)], env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, check=True, timeout=300,
    )
    return hashlib.sha256(done.stdout).hexdigest()


def record_demos() -> list[dict]:
    return [{"demo": path.name, "sha256": demo_sha256(path)} for path in DEMOS]


def main():
    (HERE / "stack_machine.json").write_text(json.dumps(record_runs()) + "\n")
    (HERE / "cli_sha256.json").write_text(json.dumps(record_cli(), indent=1) + "\n")
    (HERE / "demo_sha256.json").write_text(json.dumps(record_demos(), indent=1) + "\n")


if __name__ == "__main__":
    main()
