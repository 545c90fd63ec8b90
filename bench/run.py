"""schurcol benchmark: one closed-loop client, one problem at a time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of schur_ladder, zeros_desk, eval_sim, cli_pipeline (see
BENCHMARK.json for why each exists).  The run builds the workload's
problems from the seed, runs one whole pass over them and then repeats the
solved ones until S seconds have passed, judges every answer with the
oracles in ``oracles.py`` and prints one JSON object as its last line of
stdout.  A line before it, also written to
``.bench_out/result-NAME-traceT.json``, holds the details: environment,
failures by kind, degree and type, times by kind and degree, the tail's
percentile, the self-checks and, for traced runs, the per-degree span
table.

A problem that raises, exits non-zero or misses its workload's accuracy is
failed and its time counts as +inf.  ``attempted`` is the number of
problems and ``failed`` the number that failed, both fixed by the seed.
Each problem's time is the fastest of its attempts, because a shared host's
drift in speed only ever adds time, and the statistics cover the same
problems however fast the code is: ``solve_p50_ms`` is their median and
``solve_tail_ms`` the highest percentile with ten problems beyond it
(fewer than ten fail in every workload).  ``solved_share`` is the share of
problems solved (a failure share would be 0 on workloads where nothing
fails; the failures are listed by kind, degree and type in the details).

With ``--trace 0`` the run reports the end-to-end metrics, ``setup_s``
being the median wall time of seven fresh processes that import, build the
inputs and warm up (see ``Workload.warm_up``), started between problems at
even intervals over the run.  With ``--trace 1`` whole
passes run in pairs, untraced and traced in alternating order; the
per-layer metrics are per traced problem, and the two passes of a pair must
agree on every failure and residual.  Spans are written to
``.bench_out/spans-NAME.json``.
"""

import os

# BLAS threads are pinned before numpy loads; child processes inherit these
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
NAMES = ("schur_ladder", "zeros_desk", "eval_sim", "cli_pipeline")

# claims of a speed-up are confirmed on this seed, never used while tuning a change
HELD_OUT_SEED = 7919
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
# digits beyond double precision carry no information
RESIDUAL_FLOOR = 1e-16

# ROADMAP item-1 baselines (ms) to compare the traced per-degree table with
BASELINES_MS = {
    ("hessenberg.reduce_to_special_lower_hessenberg", 64): 20.0,
    ("hessenberg.reduce_to_special_lower_hessenberg", 128): 125.0,
    ("schur_state.schur_algorithm_state_space", 64): 146.0,
    ("schur_state.schur_algorithm_state_space", 128): 1730.0,
    ("colligation.characteristic_function", 64): 20.0,
    ("colligation.characteristic_function", 128): 88.0,
    ("schur_state.colligation_from_schur_parameters", 64): 17.0,
    ("schur_state.colligation_from_schur_parameters", 128): 71.0,
}
# the characteristic-function baseline is for 100 evaluations
BASELINE_CALLS = {"colligation.characteristic_function": 100}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="schurcol benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the inputs, warm up, and exit (times setup_s)")
    return parser.parse_args(argv)


def import_package():
    """Import schurcol from this checkout's sources, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "schurcol" / "__init__.py").is_file():
        print(f"bench: no schurcol sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import schurcol

    if Path(schurcol.__file__).resolve().parent != (src / "schurcol").resolve():
        print(f"bench: imported schurcol from {schurcol.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def set_up(name: str, seed: int):
    """Everything setup_s covers after the package import: the inputs and the warm-up."""
    import workloads

    workload = workloads.build(name, seed, ROOT, OUT)
    workload.warm_up()
    return workload


class RunClock:
    """The run's deadline, and fresh set-up processes timed at even intervals over it.

    The host's speed shifts every few seconds, so set-ups timed back to back
    all land in one phase of it; spread over the run, their median is steady.
    Time spent in set-ups moves the deadline, so the problems keep the whole run.
    """

    def __init__(self, args):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                     "--seed", str(args.seed), "--setup-only"]
        start = time.perf_counter()
        self.deadline = start + args.seconds
        self.due = [start + k * args.seconds / SETUP_REPEATS for k in range(SETUP_REPEATS)]
        self.samples: list[float] = []

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def tick(self) -> None:
        """Time the set-ups that have fallen due."""
        while self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self._time_one()

    def finish(self) -> float:
        """Time the set-ups not yet due and return the median of all."""
        while self.due:
            self.due.pop(0)
            self._time_one()
        return statistics.median(self.samples)

    def _time_one(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        spent = time.perf_counter() - start
        self.samples.append(spent)
        self.deadline += spent
        self.due = [due + spent for due in self.due]
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(f"bench: set-up process exited with {proc.returncode}")


def attempt(workload, problem, tracer):
    """Solve and judge one problem: (elapsed s, residual, failure reason, answer, error text)."""
    if tracer is not None:
        tracer.problem_id = problem.id
        tracer.problem_n = problem.n
    start = time.perf_counter()
    try:
        answer = workload.solve(problem, tracer)
    except Exception as exc:  # every failure is data; the loop must go on
        return time.perf_counter() - start, None, type(exc).__name__, None, f"{exc}"[:200]
    elapsed = time.perf_counter() - start
    residual, reason = workload.judge(problem, answer)
    return elapsed, residual, reason, answer, None


class Recorder:
    """Times and outcomes of the problems attempted in one run.

    A problem's time is the fastest of its attempts, or +inf once any attempt
    has failed.  In an untraced run only the first pass attempts every
    problem: the library is deterministic, so a problem that failed once is
    not attempted again and the rest of the run repeats the solved ones.
    """

    def __init__(self, workload):
        self.workload = workload
        self.times: dict[int, list[float]] = {p.id: [] for p in workload.problems}
        self.outcomes: dict[int, tuple] = {}
        self.messages: dict[str, str] = {}
        self.perturbation_caught = None

    def run_pass(self, problems, tracer=None, clock=None,
                 stop=False) -> tuple[list[float], dict[int, tuple]]:
        """Attempt ``problems`` in order; with a ``clock``, let it time the set-ups due
        before each attempt and, if ``stop``, end the pass once its deadline passes."""
        elapsed_all, outcomes = [], {}
        for problem in problems:
            if clock is not None:
                if stop and clock.expired():
                    break
                clock.tick()
            elapsed, residual, reason, answer, error = attempt(self.workload, problem, tracer)
            elapsed_all.append(elapsed)
            outcomes[problem.id] = (reason, residual)
            if reason is not None:
                note = error if error is not None else self.workload.failure_note(answer)
                self.messages.setdefault(f"{problem.kind} n={problem.n} {reason}", note)
            if reason is None and self.perturbation_caught is None:
                moved = self.workload.perturb(problem, answer)
                self.perturbation_caught = self.workload.judge(problem, moved)[1] is not None
        return elapsed_all, outcomes

    def keep(self, elapsed_all, outcomes) -> None:
        for (pid, (reason, _)), elapsed in zip(outcomes.items(), elapsed_all):
            self.times[pid].append(elapsed if reason is None else math.inf)
        if not self.outcomes:
            self.outcomes = outcomes

    def solved(self) -> list:
        return [p for p in self.workload.problems if math.inf not in self.times[p.id]]

    def failed(self) -> int:
        return len(self.workload.problems) - len(self.solved())


def problem_time(attempts: list[float]) -> float:
    return math.inf if math.inf in attempts else min(attempts)


def solve_statistics(times: dict[int, list[float]]) -> dict:
    """Median and tail over problems, a failed problem's time counting as +inf.

    The tail is the highest percentile with ten problems beyond it.  Each
    workload fails on fewer than ten problems, so that is a solved problem's
    time; should more fail, the slowest solved problem stands in for it and
    the details say so.  Outside that case, turning a failure into a success
    can only lower either statistic.
    """
    per_problem = sorted(problem_time(t) for t in times.values())
    count = len(per_problem)
    solved = [t for t in per_problem if not math.isinf(t)]
    p50 = statistics.median(per_problem)
    rank = count - 10
    if math.isinf(p50) or rank < 1:
        raise SystemExit(f"bench: {count - len(solved)} of {count} problems fail;"
                         " no median or tail to report")
    tail = per_problem[rank - 1]
    return {
        "solve_p50_ms": 1e3 * p50,
        "solve_tail_ms": 1e3 * (solved[-1] if math.isinf(tail) else tail),
        "tail_rank": rank,
        "tail_percentile": 100.0 * rank / count,
        "tail_is_slowest_solved": math.isinf(tail),
        "problems": count,
        "solved": len(solved),
        "attempts_per_solved_problem": statistics.fmean(
            len(t) for t in times.values() if math.inf not in t),
    }


def class_table(workload, times) -> list[dict]:
    """Median problem time and attempts per solved problem, by kind and degree."""
    groups: dict[tuple, list] = {}
    for problem in workload.problems:
        groups.setdefault((problem.kind, problem.n), []).append(times[problem.id])
    rows = []
    for (kind, n), group in sorted(groups.items(), key=lambda item: (item[0][1], item[0][0])):
        solved = [t for t in group if math.inf not in t]
        rows.append({"kind": kind, "n": n, "problems": len(group), "solved": len(solved),
                     "median_ms": 1e3 * statistics.median(min(t) for t in solved) if solved else None,
                     "attempts": statistics.fmean(len(t) for t in solved) if solved else None})
    return rows


def accuracy_digits(outcomes: dict[int, tuple]) -> float:
    worst = max((r for reason, r in outcomes.values() if reason is None and r is not None),
                default=0.0)
    return -math.log10(max(worst, RESIDUAL_FLOOR))


def failure_table(workload, outcomes) -> list[dict]:
    counts: dict[tuple, int] = {}
    for problem in workload.problems:
        reason = outcomes[problem.id][0]
        if reason is not None:
            key = (problem.kind, problem.n, reason)
            counts[key] = counts.get(key, 0) + 1
    return [{"kind": k, "n": n, "reason": r, "count": c}
            for (k, n, r), c in sorted(counts.items(), key=lambda item: (item[0][1], item[0][0]))]


def blas_threads():
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def per_layer(tracer, workload, traced_problems: int, untraced_s: float, traced_s: float):
    """Per-problem calls, self seconds and errors of each traced function, plus totals."""
    from tracing import SPAN_NAMES

    self_times = tracer.self_times()
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    errors = dict.fromkeys(SPAN_NAMES, 0)
    durations: dict[str, list[float]] = {}
    top = 0.0
    for i, name in enumerate(tracer.name):
        duration = tracer.end[i] - tracer.start[i]
        durations.setdefault(name, []).append(duration)
        if tracer.parent[i] < 0 and tracer.problem[i] >= 0:
            top += duration
        if name in calls:
            calls[name] += 1
            self_s[name] += self_times[i]
            errors[name] += tracer.error[i]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / traced_problems, "1/problem")
        metrics[f"{name}.self_s"] = (self_s[name] / traced_problems, "s/problem")
        metrics[f"{name}.errors"] = (errors[name] / traced_problems, "1/problem")

    def mean(name):
        values = durations.get(name, [])
        return statistics.fmean(values) if values else 0.0

    metrics["cli.import_s"] = (mean("cli.import"), "s")
    for command in ("realize", "schur", "verify"):
        metrics[f"cli.{command}.s"] = (mean(f"cli.{command}"), "s")
    written = getattr(workload, "traced_bytes", [])
    metrics["serialize.bytes_out"] = (statistics.fmean(written) if written else 0.0, "bytes")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "share")
    metrics["trace.top_coverage"] = (top / traced_s, "share")
    return metrics


def degree_table(tracer) -> list[dict]:
    """Mean successful span time per function and degree, next to the ROADMAP baselines."""
    groups: dict[tuple, list[float]] = {}
    failures: dict[tuple, int] = {}
    for i, name in enumerate(tracer.name):
        key = (name, tracer.n[i])
        if tracer.error[i]:
            failures[key] = failures.get(key, 0) + 1
        else:
            groups.setdefault(key, []).append(tracer.end[i] - tracer.start[i])
    rows = []
    for key in sorted(set(groups) | set(failures)):
        name, n = key
        values = groups.get(key, [])
        row = {"span": name, "n": n, "calls": len(values), "errors": failures.get(key, 0),
               "mean_ms": 1e3 * statistics.fmean(values) if values else None}
        if key in BASELINES_MS and values:
            per = BASELINE_CALLS.get(name, 1)
            row["measured_ms"] = row["mean_ms"] * per
            row["baseline_ms"] = BASELINES_MS[key]
            row["ratio"] = row["measured_ms"] / BASELINES_MS[key]
        rows.append(row)
    return rows


def run(args) -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    setup_s = setup_samples = None
    workload = set_up(args.workload, args.seed)
    workload.prepare_oracles()
    from tracing import Tracer, leftover_wrappers

    recorder = Recorder(workload)
    checks = {"wrappers_before": leftover_wrappers() == []}
    details: dict = {"workload": args.workload, "trace": args.trace}
    if args.trace == 0:
        clock = RunClock(args)
        recorder.keep(*recorder.run_pass(workload.problems, clock=clock))
        solved = recorder.solved()
        while not clock.expired():
            recorder.keep(*recorder.run_pass(solved, clock=clock, stop=True))
        setup_s, setup_samples = clock.finish(), clock.samples
    else:
        deadline = time.perf_counter() + args.seconds
        tracer = Tracer()
        untraced_s = traced_s = 0.0
        traced_problems = 0
        same = True

        def traced_pass():
            details["wrapped"] = tracer.install()
            try:
                return recorder.run_pass(workload.problems, tracer)
            finally:
                tracer.uninstall()
                workload.after_traced_pass(tracer)

        # alternate which side of a pair runs first, so warm caches favour neither;
        # start another pair only if it should end before the deadline
        pairs = 0
        while True:
            pair_start = time.perf_counter()
            if pairs % 2:
                traced_elapsed, traced = traced_pass()
                plain_elapsed, plain = recorder.run_pass(workload.problems)
            else:
                plain_elapsed, plain = recorder.run_pass(workload.problems)
                traced_elapsed, traced = traced_pass()
            same = same and repr(plain) == repr(traced)
            untraced_s += sum(plain_elapsed)
            traced_s += sum(traced_elapsed)
            traced_problems += len(traced_elapsed)
            recorder.keep(traced_elapsed, traced)
            pairs += 1
            if 2 * time.perf_counter() - pair_start >= deadline:
                break
        checks["traced_matches_untraced"] = same
        checks["wrappers_removed"] = leftover_wrappers() == []
        metrics = per_layer(tracer, workload, traced_problems, untraced_s, traced_s)
        details["per_degree"] = degree_table(tracer)
        with open(OUT / f"spans-{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "spans": tracer.export(),
                       "problem": tracer.problem, "n": tracer.n}, fh)
    checks["perturbation_caught"] = bool(recorder.perturbation_caught)

    stats = solve_statistics(recorder.times)
    digits = accuracy_digits(recorder.outcomes)
    attempted, failed = len(workload.problems), recorder.failed()
    if args.trace == 0:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_p50_ms": (stats["solve_p50_ms"], "ms"),
            "solve_tail_ms": (stats["solve_tail_ms"], "ms"),
            "accuracy_digits": (digits, "digits"),
            "solved_share": (1.0 - failed / attempted, "share"),
            "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        }
    details.update(
        environment=environment(args.seed),
        setup_samples_s=setup_samples,
        statistics=stats,
        classes=class_table(workload, recorder.times),
        accuracy_digits=digits,
        fail_share=failed / attempted,
        failures=failure_table(workload, recorder.outcomes),
        failure_messages=recorder.messages,
        checks=checks,
    )
    correct = all(checks.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
