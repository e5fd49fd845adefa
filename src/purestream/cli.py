"""Command-line front end: seeded experiments and machine-readable outputs.

Curve and grid data go to CSV (with `# key: value` metadata comments),
run summaries to JSON (with a `meta` block echoing the full
configuration and root seed).  Identical invocations produce identical
bytes, so outputs can be diffed in CI.

Each command returns its exit code and output lines and opens no file;
main opens --out, and simulate's --per-run, before the command runs, so
a bad path fails at once, and writes after it returns.

Exit codes: 0 success, 1 usage error, 2 validation/tolerance failure,
3 budget exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

# 10^5 grid points at the default four dimensions make 16 MB of region
# output in about 2 s
MAX_RESOLUTION = 10**5

# verify's trials per stacked swap test, which bounds its memory: 4 MB per stack at d = 16
_VERIFY_CHUNK = 1024

# simon draws its hidden string with rng.integers(1, 2^m), which int64 bounds
MAX_SIMON_M = 63


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageExit(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def _dim_list(text: str) -> list:
    from .core import as_dimension

    try:
        dims = [as_dimension(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not dims:
        raise argparse.ArgumentTypeError(f"must list dimensions, got {text!r}")
    if len(set(dims)) < len(dims):
        raise argparse.ArgumentTypeError(f"must list each dimension once, got {text!r}")
    return dims


def _m_list(text: str) -> list[int]:
    ms = [int(tok) for tok in text.split(",") if tok.strip()]
    if not ms or not all(2 <= m <= MAX_SIMON_M for m in ms):
        raise argparse.ArgumentTypeError(f"must list sizes in 2..{MAX_SIMON_M}, got {text!r}")
    if len(set(ms)) < len(ms):
        # per_m is keyed by size, so a repeat would overwrite a result
        raise argparse.ArgumentTypeError(f"must list each size once, got {text!r}")
    return ms


def _meta(schema: str, args, *unechoed: str) -> dict:
    """The meta block: the parsed arguments, less the common and `unechoed` ones."""
    skip = {"command", "func", "seed", "out", *unechoed}
    params = {k: _echo(v) for k, v in vars(args).items() if k not in skip}
    return {
        "tool": "purestream",
        "version": __version__,
        "schema": schema,
        "command": args.command,
        "params": params,
        "seed": args.seed,
    }


def _echo(value):
    """A parsed argument as the meta block shows it: a Dimension as its str."""
    from .core import Dimension

    if isinstance(value, list):
        return [_echo(v) for v in value]
    return str(value) if isinstance(value, Dimension) else value


@contextlib.contextmanager
def _outputs(*paths: str):
    """Open paths in order ('-' is stdout), in append mode, and yield their streams.

    Appending changes no file, so a bad path fails before the command runs
    and leaves every file as it was.  If the block raises, the files that
    this call created are removed; the caller empties each regular file
    before it writes.
    """
    created = [p for p in paths if p != "-" and not os.path.lexists(p)]
    try:
        with contextlib.ExitStack() as stack:
            yield [sys.stdout if p == "-" else stack.enter_context(open(p, "a")) for p in paths]
    except BaseException:
        for path in filter(os.path.lexists, created):
            os.remove(path)
        raise


def _csv(meta: dict, header: list[str], rows):
    """The lines of a CSV, made as they are written.

    The first row is made here, inside the command, so an argument error
    raised making it (an out-of-range --iters, say) writes nothing.
    """
    rows = iter(rows)
    first = list(itertools.islice(rows, 1))
    lines = []
    for key, value in meta.items():
        if key == "params":
            value = json.dumps(value, sort_keys=True)
        lines.append(f"# {key}: {value}\n")
    lines.append(",".join(header) + "\n")
    body = (",".join(map(_cell, row)) + "\n" for row in itertools.chain(first, rows))
    return itertools.chain(lines, body)


def _cell(x) -> str:
    return "" if x is None else str(x)


def _json_doc(meta: dict, payload: dict) -> str:
    return json.dumps({"meta": meta, **payload}, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_recurrence(args):
    from . import recurrence

    # rows come straight from the walk; no dimension's orbit is held
    rows = (
        (str(dm), i, delta_i, p_i)
        for dm in args.d
        for i, (delta_i, _, p_i) in enumerate(recurrence.orbit(args.delta0, dm, args.iters))
    )
    return EXIT_OK, _csv(_meta("recurrence-v1", args), ["d", "i", "delta_i", "p_i"], rows)


def cmd_bounds(args):
    from . import recurrence

    d, delta0, eps = args.d, args.delta0, args.eps
    n_direct = recurrence.iterations_to(delta0, d, eps)
    trace = recurrence.iterate(delta0, d, n_direct)
    sc_exact = trace.expected_copies
    high_noise = delta0 > 2.0 / 3.0
    table = {
        "n_direct": n_direct,
        "final_delta": trace.final_delta,
        "n_upper_inf": recurrence.n_upper_inf(delta0) if high_noise else None,
        "n_upper_finite_d": recurrence.n_upper_finite_d(delta0, d) if high_noise else None,
        "sc_exact": sc_exact,
        "sc_theorem_bound": recurrence.sc_theorem_bound(delta0, d, eps),
        "lower_bound_samples": recurrence.lower_bound_samples(delta0, d, eps),
        "optimal_protocol_samples": recurrence.optimal_protocol_samples(delta0, d, eps),
        "tomography_collective": recurrence.tomography_sample_estimate(d, delta0, eps, True),
        "tomography_single_copy": recurrence.tomography_sample_estimate(d, delta0, eps, False),
    }
    meta = _meta("bounds-v1", args, "format")
    if args.format == "json":
        return EXIT_OK, [_json_doc(meta, {"bounds": table})]
    lines = [f"# {k}: {v}" for k, v in meta.items() if k != "params"]
    lines.append(f"# params: {json.dumps(meta['params'], sort_keys=True)}")
    width = max(len(k) for k in table)
    for key, value in table.items():
        lines.append(f"{key:<{width}}  {'N/A' if value is None else value}")
    return EXIT_OK, ["\n".join(lines) + "\n"]


def cmd_region(args):
    from . import gadget

    if args.resolution > MAX_RESOLUTION:
        raise _UsageExit(f"--resolution must be at most {MAX_RESOLUTION}, got {args.resolution}")
    dims = args.d_list
    grid = _region_grid(args.resolution)
    rows = (
        (str(dm), delta1, gadget.region_boundary(delta1, dm)) for dm in dims for delta1 in grid
    )
    return EXIT_OK, _csv(_meta("region-v3", args), ["d", "delta1", "delta2_boundary"], rows)


def _region_grid(resolution: int) -> list[float]:
    """The points i/(R + 1), i = 1..R: np.linspace(0, 1, R + 2)[1:-1], bit for bit."""
    step = 1.0 / (resolution + 1)
    return [i * step for i in range(1, resolution + 1)]


def cmd_simulate(args):
    from . import streaming
    from .core import Seed

    if args.per_run not in (None, "-") and args.out != "-":
        if os.path.realpath(args.out) == os.path.realpath(args.per_run):
            raise _UsageExit(f"--out and --per-run name the same file: {args.per_run}")
    summary, samples = streaming.monte_carlo(
        args.delta0,
        args.d,
        args.levels,
        args.runs,
        Seed(args.seed),
        jobs=args.jobs,
        keep_samples=True,
    )
    meta = _meta("simulate-v2", args, "per_run")
    payload = {
        "summary": {
            "mean_copies": summary.mean_copies,
            "var_copies": summary.var_copies,
            "stderr_copies": summary.stderr_copies,
            "min_copies": summary.min_copies,
            "max_copies": summary.max_copies,
            "mean_swap_attempts": summary.mean_swap_attempts,
            "max_stack_depth": summary.n + 1,  # the memory bound, which every run reaches
            "theoretical_sc": summary.theoretical_sc,
            "z_score": summary.z_score,
        }
    }
    outputs = [[_json_doc(meta, payload)]]
    if args.per_run is not None:
        outputs.append(_csv(meta, ["run", "copies_consumed"], enumerate(samples.tolist())))
    return EXIT_OK, *outputs


def cmd_verify(args):
    import numpy as np

    from . import dense_oracle, gadget
    from .core import Seed

    if args.d > dense_oracle.MAX_DIM:
        raise _UsageExit(f"dense oracle is capped at d <= {dense_oracle.MAX_DIM}")
    tol = args.tol
    rng = Seed(args.seed).generator()
    worst_prob = 0.0
    worst_state = 0.0
    for start in range(0, args.trials, _VERIFY_CHUNK):
        n = min(_VERIFY_CHUNK, args.trials - start)
        trials = [(dense_oracle.random_pure_state(args.d, rng), *rng.random(2)) for _ in range(n)]
        result = dense_oracle.swap_test_apply(
            np.stack([dense_oracle.make_depolarized(psi, d1) for psi, d1, _ in trials]),
            np.stack([dense_oracle.make_depolarized(psi, d2) for psi, _, d2 in trials]),
        )
        for t, (psi, d1, d2) in enumerate(trials):
            dp = abs(result.p0[t] - gadget.swap_success_prob(d1, d2, args.d))
            expected = dense_oracle.make_depolarized(psi, gadget.swap_output_delta(d1, d2, args.d))
            ds = dense_oracle.trace_distance(result.omega0[t], expected)
            worst_prob = max(worst_prob, float(dp))
            worst_state = max(worst_state, float(ds))
    ok = bool(worst_prob <= tol and worst_state <= tol)
    meta = _meta("verify-v4", args, "jobs")
    payload = {
        "report": {
            "max_prob_deviation": worst_prob,
            "max_trace_distance": worst_state,
            "tolerance": tol,
            "pass": ok,
        }
    }
    return (EXIT_OK if ok else EXIT_VALIDATION), [_json_doc(meta, payload)]


def cmd_simon(args):
    from . import applications
    from .core import Seed

    per_m = {}
    all_budget_exhausted = True
    rng_root = Seed(args.seed)
    for idx, m in enumerate(args.m):
        eps = args.eps if args.eps is not None else 1.0 / (10.0 * m)
        budget = args.budget if args.budget is not None else 10 * m
        successes = 0
        exhausted = 0
        queries = 0
        samples = 0
        for trial in range(args.trials):
            rng = rng_root.child_generator(idx * args.trials + trial)
            s_mask = int(rng.integers(1, 1 << m))
            inst = applications.SimonInstance(m, format(s_mask, f"0{m}b"), args.delta)
            result = applications.solve_simon(inst, eps, budget, rng)
            successes += result.success
            exhausted += result.s_hat is None
            queries += result.total_oracle_queries
            samples += result.samples_collected
        per_m[str(m)] = {
            "eps_target": eps,
            "budget": budget,
            "trials": args.trials,
            "success_rate": successes / args.trials,
            "budget_exhausted": exhausted,
            # exact integer sums, so the one rounding is the division
            "mean_queries": queries / args.trials,
            "mean_samples": samples / args.trials,
        }
        all_budget_exhausted = all_budget_exhausted and exhausted == args.trials
    # a trial that runs out of samples fails, so none succeeded
    code = EXIT_BUDGET if all_budget_exhausted else EXIT_OK
    return code, [_json_doc(_meta("simon-v1", args, "jobs"), {"per_m": per_m})]


def cmd_mixedness(args):
    from . import applications
    from .core import Seed

    cases = {
        "mixed": (1.0, applications.MAXIMALLY_MIXED),
        "far": (1.0 - args.eta / 2.0, applications.FAR_FROM_MIXED),
    }
    if args.case != "both":
        cases = {args.case: cases[args.case]}
    classes = {}
    offset = 0
    for name, (case_delta, expected) in cases.items():
        errors = 0
        hist = {}
        for trial in range(args.trials):
            seed = Seed(args.seed, offset + trial)
            outcome = applications.mixedness_test(
                case_delta, args.d, args.eta, args.reps, seed, threshold=args.tau
            )
            errors += outcome.verdict != expected
            hist[outcome.passes] = hist.get(outcome.passes, 0) + 1
        offset += args.trials
        classes[name] = {
            "case_delta": case_delta,
            "trials": args.trials,
            "error_rate": errors / args.trials,
            "pass_count_histogram": {str(k): v for k, v in sorted(hist.items())},
        }
    return EXIT_OK, [_json_doc(_meta("mixedness-v1", args), {"classes": classes})]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared; do not modify it."""
    parser = _Parser(prog="purestream", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"purestream {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs_help=None):
        p.add_argument("--seed", type=int, default=0, help="root PRNG seed")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        if jobs_help:
            p.add_argument("--jobs", type=_positive_int, default=1, help=jobs_help)

    # verify and simon accept --jobs, unechoed, for callers that still send it
    ignored_jobs = "accepted and ignored"

    p = sub.add_parser("recurrence", help="error/success-probability curves")
    p.add_argument("--d", type=_dim_list, default="20,50,100,inf", help="list of dimensions")
    p.add_argument("--delta0", type=float, default=0.99)
    p.add_argument("--iters", type=int, default=60, help="at most recurrence.ITERATION_CAP")
    common(p)
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("bounds", help="iteration/sample-complexity bound table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta0", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("region", help="improvement-region boundary grid")
    p.add_argument("--d-list", type=_dim_list, default="2,3,6,inf")
    p.add_argument(
        "--resolution", type=_positive_int, default=200, help=f"at most {MAX_RESOLUTION}"
    )
    common(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("simulate", help="Monte Carlo streaming runs")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta0", type=float, required=True)
    p.add_argument("--levels", type=_positive_int, required=True)
    p.add_argument("--runs", type=_positive_int, default=10000)
    p.add_argument("--per-run", default=None, help="optional per-run CSV path")
    common(p, "parallel worker processes, at most one per CPU; the output does not "
           "depend on the split")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="dense-oracle equivalence sweep")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    common(p, ignored_jobs)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simon", help="Simon's problem with a depolarizing oracle")
    p.add_argument("--m", type=_m_list, default="4", help=f"2..{MAX_SIMON_M}, or a comma list")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=None, help="default 1/(10m)")
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--budget", type=_positive_int, default=None, help="default 10m samples")
    common(p, ignored_jobs)
    p.set_defaults(func=cmd_simon)

    p = sub.add_parser("mixedness", help="mixedness-testing error rates", description=(
        "At the defaults (--d 2, --reps 20, --tau 0.875) a maximally mixed trial is misread "
        "as far from mixed with probability 0.0913, P(Binomial(20, 3/4) >= 18)."))
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--case", choices=("mixed", "far", "both"), default="both")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--reps", type=_positive_int, default=20)
    # applications.DEFAULT_THRESHOLD, stated here so the parser loads no layer
    p.add_argument("--tau", type=float, default=0.875, help="in (0, 1)")
    common(p)
    p.set_defaults(func=cmd_mixedness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        per_run = getattr(args, "per_run", None)
        with _outputs(args.out, *([] if per_run is None else [per_run])) as streams:
            code, *outputs = args.func(args)
            for fh, lines in zip(streams, outputs):
                if fh is not sys.stdout and os.path.isfile(fh.name):
                    fh.truncate(0)
                fh.writelines(lines)
        return code
    except (_UsageExit, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # an overflow, or a division by a product that underflowed to 0
        kind = "overflow" if isinstance(exc, OverflowError) else "error"
        print(f"error: numeric {kind}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a count so large that numpy cannot allocate its array
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
