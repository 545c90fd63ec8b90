"""The four workloads: seeded inputs, the timed library or CLI calls, and the oracle.

A workload holds one pass of problems.  ``solve`` makes only the calls a
user would make and is the timed part; ``judge`` compares the answer with
an oracle from ``oracles`` and returns ``(residual, reason)``, where
``reason`` is None for a solved problem and names the failure otherwise.
Accuracies are the acceptance suite's tolerances for the same identities.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles as orc
import schurcol as sc
from schurcol import cli

# a fresh schurcol process that runs longer than this stops the benchmark
CHILD_TIMEOUT_S = 120.0
CHILD = Path(__file__).with_name("cli_child.py")


@dataclass
class Problem:
    id: int
    kind: str
    n: int
    data: dict


class Workload:
    def __init__(self):
        self.problems: list[Problem] = []

    def add(self, kind: str, n: int, **data) -> None:
        self.problems.append(Problem(len(self.problems), kind, n, data))

    def shuffle(self, rng: np.random.Generator) -> None:
        """Spread each kind and degree over the whole pass, so that every class of
        problems samples all of a run's drift in machine speed, not one stretch."""
        self.problems = [self.problems[i] for i in rng.permutation(len(self.problems))]

    def warm_up(self) -> None:
        """Solve the smallest problem of each kind once, untimed."""
        smallest: dict[str, Problem] = {}
        for p in self.problems:
            if p.kind not in smallest or p.n < smallest[p.kind].n:
                smallest[p.kind] = p
        for problem in smallest.values():
            self._warm(problem)

    def _warm(self, problem: Problem) -> None:
        try:
            self.solve(problem, None)
        except Exception:  # a failing problem still warms up the path it takes
            pass

    def after_traced_pass(self, tracer) -> None:
        """Spans recorded once per traced pass, outside the problems."""

    def prepare_oracles(self) -> None:
        """Untimed reference data, computed after set-up."""

    def solve(self, problem: Problem, tracer):
        raise NotImplementedError

    def judge(self, problem: Problem, answer) -> tuple[float | None, str | None]:
        raise NotImplementedError

    def perturb(self, problem: Problem, answer):
        """The answer moved by far more than the accuracy, for the self-check."""
        raise NotImplementedError

    def failure_note(self, answer) -> str | None:
        """What a failed answer says about its failure, when it raised nothing."""
        return None



def _within(residual: float, tolerance: float) -> str | None:
    return None if residual <= tolerance else "Inaccurate"


class SchurLadder(Workload):
    """Parameters -> closed-form colligation -> (gauge) -> state-space recursion."""

    # acceptance criterion 1: parameters -> matrix -> parameters
    TOLERANCE = 1e-8
    # sequences per degree; each runs plain and gauged.  While the gauged
    # n >= 48 problems fail, the median falls among the n = 32 problems (of
    # the gauged ones, about one in seven fails) and the tail among the plain
    # n = 64 ones, and fewer than ten problems fail.  n = 128 is left out with
    # n = 256: at about 2 s a problem it gets too few attempts in a run to be
    # timed steadily.
    COUNTS = {16: 3, 32: 10, 64: 6}

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng([seed, 1])
        for n, count in self.COUNTS.items():
            for _ in range(count):
                params = orc.random_params(rng, n)
                gauge = orc.random_unitary(rng, n)
                seq = sc.SchurParameterSequence(tuple(params))
                self.add("plain", n, params=params, seq=seq)
                self.add("gauged", n, params=params, seq=seq, gauge=gauge)
        self.shuffle(rng)

    def solve(self, problem, tracer):
        col = sc.colligation_from_schur_parameters(problem.data["seq"])
        if "gauge" in problem.data:
            col = sc.apply_state_gauge(col, problem.data["gauge"])
        trace = sc.schur_algorithm_state_space(col)
        return trace.complete, np.asarray(trace.parameters)

    def judge(self, problem, answer):
        complete, params = answer
        expected = problem.data["params"]
        if not complete:
            return None, "Incomplete"
        if params.shape != expected.shape:
            return None, "WrongLength"
        residual = float(np.abs(params - expected).max())
        return residual, _within(residual, self.TOLERANCE)

    def perturb(self, problem, answer):
        complete, params = answer
        return complete, params + 1e-6


class ZerosDesk(Workload):
    """Zero sets through every realization route the ``realize`` command offers."""

    # zero sets per degree: every pass has the same mix of degrees, so only the
    # zeros themselves (and with them which sets fail) change with the seed.
    # One clustered set at each of a few degrees keeps the failures below the
    # ten problems beyond the tail; those of degree 6 and more fail today.
    RANDOM_PER_DEGREE = 20
    CLUSTERED_DEGREES = (3, 6, 9, 12)
    MAX_DEGREE = 12
    # acceptance criteria 5 and 8: characteristic function against its reference
    TOLERANCE_S = 1e-10
    # acceptance criteria 6 and 8: intertwining residual of the equivalence
    TOLERANCE_EQUIV = 1e-9

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng([seed, 2])
        for degree in range(1, self.MAX_DEGREE + 1):
            for _ in range(self.RANDOM_PER_DEGREE):
                self._add("random", *orc.random_zeros(rng, degree))
            if degree in self.CLUSTERED_DEGREES:
                self._add("clustered", *orc.clustered_zeros(rng, degree))
        self.shuffle(rng)
        self.samples = orc.disc_points(rng, 16, 0.95)

    def _add(self, kind: str, c: complex, zeros: list) -> None:
        self.add(kind, len(zeros), c=c, zeros=zeros, blaschke=sc.BlaschkeProduct(c, tuple(zeros)))

    def solve(self, problem, tracer):
        b = problem.data["blaschke"]
        params = sc.schur_parameters(sc.blaschke_to_rational(b))
        closed = sc.colligation_from_schur_parameters(params)
        model = sc.model_colligation(b)
        gauge = sc.find_equivalence(model, closed)
        rebuilt = sc.UnitaryColligation(np.array([[params[-1]]]))
        for s in reversed(params.params[:-1]):
            rebuilt = sc.redheffer_product(sc.elementary_schur_section(s).partitioned, rebuilt)
        return closed.matrix, model.matrix, gauge, rebuilt.matrix

    def judge(self, problem, answer):
        closed, model, gauge, rebuilt = answer
        if gauge is None:
            return None, "NoEquivalence"
        z = self.samples
        reference = orc.zero_product(problem.data["c"], problem.data["zeros"], z)
        s_error = max(float(np.abs(orc.transfer(m, z) - reference).max())
                      for m in (closed, model, rebuilt))
        equiv = orc.intertwining(model, closed, gauge)
        residual = max(s_error, equiv)
        if s_error > self.TOLERANCE_S or equiv > self.TOLERANCE_EQUIV:
            return residual, "Inaccurate"
        return residual, None

    def perturb(self, problem, answer):
        closed, model, gauge, rebuilt = answer
        moved = closed.copy()
        moved[0, 0] += 1e-6
        return moved, model, gauge, rebuilt


class EvalSim(Workload):
    """Evaluation and simulation of colligations built during set-up."""

    SIZES = (16, 64, 128)
    # batches of 50 points and 2048-sample simulations per degree.  Sorted by
    # time the classes run eval 16 < eval 64 < sim 16 < sim 64 < sim 128 <
    # eval 128, so these counts put the median in the middle of the n = 128
    # simulations and the tail rank inside the twelve n = 128 batches.
    EVALS = {16: 2, 64: 2, 128: 12}
    SIMS = {16: 4, 64: 4, 128: 8}
    POINTS = 50
    SAMPLES = 2048
    MARKOV = 256
    # acceptance criteria 4, 5 and 8: characteristic function against its reference
    TOLERANCE_S = 1e-10
    # acceptance criterion 11: energy balance
    TOLERANCE_ENERGY = 1e-10
    # acceptance criterion 10: impulse response against Taylor coefficients
    TOLERANCE_MARKOV = 1e-8

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng([seed, 3])
        self.params = {n: orc.random_params(rng, n) for n in self.SIZES}
        self.systems = {
            n: sc.colligation_from_schur_parameters(sc.SchurParameterSequence(tuple(p)))
            for n, p in self.params.items()
        }
        evals = []
        for n, count in self.EVALS.items():
            for _ in range(count):
                half = self.POINTS // 2
                inside = orc.disc_points(rng, half, 0.95)
                circle = np.exp(2j * np.pi * rng.uniform(size=self.POINTS - half))
                evals.append((n, np.concatenate([inside, circle])))
        sims = []
        for n, count in self.SIMS.items():
            for _ in range(count):
                u = rng.standard_normal(self.SAMPLES) + 1j * rng.standard_normal(self.SAMPLES)
                sims.append((n, u))
        # the kinds alternate; each kind's degrees are spread over the pass
        evals = [evals[i] for i in rng.permutation(len(evals))]
        sims = [sims[i] for i in rng.permutation(len(sims))]
        for (ne, points), (ns, u) in zip(evals, sims):
            self.add("eval", ne, points=points)
            self.add("sim", ns, inputs=u)

    def prepare_oracles(self):
        markov = {n: orc.markov(p, self.MARKOV) for n, p in self.params.items()}
        for problem in self.problems:
            if problem.kind == "eval":
                problem.data["expected"] = orc.mobius_fold(self.params[problem.n],
                                                           problem.data["points"])
            else:
                problem.data["markov"] = markov[problem.n]

    def solve(self, problem, tracer):
        col = self.systems[problem.n]
        if problem.kind == "eval":
            return np.array([sc.characteristic_function(col, z) for z in problem.data["points"]])
        outputs, states = sc.simulate_time_domain(col, problem.data["inputs"])
        return outputs, states[-1]

    def judge(self, problem, answer):
        if problem.kind == "eval":
            residual = float(np.abs(answer - problem.data["expected"]).max())
            return residual, _within(residual, self.TOLERANCE_S)
        outputs, final_state = answer
        u = problem.data["inputs"]
        energy = orc.energy_gap(u, outputs, final_state)
        conv = orc.convolution_gap(problem.data["markov"], u, outputs)
        failed = energy > self.TOLERANCE_ENERGY or conv > self.TOLERANCE_MARKOV
        return max(energy, conv), "Inaccurate" if failed else None

    def perturb(self, problem, answer):
        if problem.kind == "eval":
            return answer + 1e-6
        outputs, final_state = answer
        moved = outputs.copy()
        moved[0] += 1e-6
        return moved, final_state


class CliPipeline(Workload):
    """``schurcol realize``, then ``schur`` and ``verify`` on its output.

    Each problem is one ``cli.main`` call with ``--input`` and ``--output``
    files, made in this process: argument parsing, the command, canonical
    JSON and the exit code, as a user's command line runs them.  A fresh
    ``schurcol`` process takes about 0.2 s, most of it interpreter start and
    imports, and on a shared host the speed of a span that long shifts by a
    fifth from run to run, so processes are not the timed problems: the
    set-up runs ``python -m schurcol.cli realize`` once in a fresh process,
    so ``setup_s`` carries its cost, and the traced run times a fresh import
    of ``schurcol.cli`` after each pass (``cli.import_s``).
    """

    # parameter sequences per degree; fewer than ten problems fail (all three
    # commands at n = 64, now and then one at n = 32)
    SEQUENCES = {8: 4, 32: 4, 64: 1}
    COMMANDS = ("realize", "schur", "verify")
    # realize: acceptance criteria 5 and 8, characteristic function against its reference
    TOLERANCE_S = 1e-10
    # schur: acceptance criterion 1, parameters -> matrix -> parameters
    TOLERANCE_PARAMS = 1e-8
    # verify: the residuals it reports, against the bounds the CLI itself applies
    VERIFY_BOUNDS = {
        "unitarity_residual": 1e-10,
        "inner_disc_excess": 1e-10,
        "inner_circle_deviation": 1e-9,
        "spectral_max_residual": 1e-10,
    }

    def __init__(self, seed: int, root: Path, out: Path):
        super().__init__()
        rng = np.random.default_rng([seed, 4])
        self.root = root
        self.out = out
        out.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.traced_bytes: list[int] = []
        self.samples = orc.disc_points(rng, 16, 0.95)
        for n, count in self.SEQUENCES.items():
            for k in range(count):
                params = orc.random_params(rng, n)
                source = out / f"cli-{n}-{k}-params.json"
                doc = {"params": [[z.real, z.imag] for z in params]}
                source.write_text(json.dumps(doc) + "\n", encoding="utf-8")
                realized = out / f"cli-{n}-{k}-realized.json"
                for command in self.COMMANDS:
                    self.add(command, n, params=params, source=source, realized=realized)
        self.shuffle(rng)
        # schur and verify read what realize wrote earlier in the same pass
        self.problems.sort(key=lambda p: p.kind != "realize")

    def warm_up(self) -> None:
        """The smallest realize problem in this process, then as a fresh process."""
        problem = min((p for p in self.problems if p.kind == "realize"), key=lambda p: p.n)
        self._warm(problem)
        with open(problem.data["source"], "rb") as fin:
            subprocess.run([sys.executable, "-m", "schurcol.cli", "realize"], stdin=fin,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                           env=self.env, cwd=self.root, timeout=CHILD_TIMEOUT_S)

    def solve(self, problem, tracer):
        command = problem.kind
        source = problem.data["source"] if command == "realize" else problem.data["realized"]
        target = problem.data["realized"] if command == "realize" else self.out / "cli-out.json"
        target.unlink(missing_ok=True)
        argv = [command, "--input", str(source), "--output", str(target)]
        stderr = io.StringIO()
        span = tracer.open(f"cli.{command}") if tracer is not None else None
        try:
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        finally:
            if span is not None:
                tracer.close(span)
        stdout = target.read_bytes() if target.exists() else b""
        if tracer is not None:
            self.traced_bytes.append(len(stdout))
        return {"code": code, "stdout": stdout, "stderr": stderr.getvalue()}

    def after_traced_pass(self, tracer) -> None:
        """Time a fresh-process import of ``schurcol.cli`` as the span ``cli.import``."""
        spans_path = self.out / "cli-import-spans.json"
        subprocess.run([sys.executable, str(CHILD), str(spans_path)], env=self.env,
                       cwd=self.root, check=True, timeout=CHILD_TIMEOUT_S)
        tracer.problem_id, tracer.problem_n = -1, 0
        tracer.merge(json.loads(spans_path.read_text(encoding="utf-8")), -1)
        spans_path.unlink()

    def judge(self, problem, answer):
        if answer["code"] != 0:
            return None, f"exit {answer['code']}"
        try:
            return self._judge_output(problem, answer.get("doc") or json.loads(answer["stdout"]))
        except (ValueError, KeyError, TypeError, IndexError):
            return None, "BadOutput"

    def _judge_output(self, problem, doc):
        params = problem.data["params"]
        if problem.kind == "realize":
            matrix = np.array([[complex(*v) for v in row] for row in doc["matrix"]])
            z = self.samples
            residual = float(np.abs(orc.transfer(matrix, z) - orc.mobius_fold(params, z)).max())
            return residual, _within(residual, self.TOLERANCE_S)
        if problem.kind == "schur":
            got = np.array([complex(*v) for v in doc["parameters"]])
            if not doc["complete"] or got.shape != params.shape:
                return None, "Incomplete"
            residual = float(np.abs(got - params).max())
            return residual, _within(residual, self.TOLERANCE_PARAMS)
        if doc["n"] != len(params) - 1:
            return None, "WrongDegree"
        for key, bound in self.VERIFY_BOUNDS.items():
            if not doc[key] <= bound:
                return None, "Inaccurate"
        return None, None

    def perturb(self, problem, answer):
        doc = json.loads(answer["stdout"])
        if problem.kind == "realize":
            doc["matrix"][0][0][0] += 1e-6
        elif problem.kind == "schur":
            doc["parameters"][0][0] += 1e-6
        else:
            doc["unitarity_residual"] = 1e-6
        return dict(answer, doc=doc)

    def failure_note(self, answer):
        """The CLI's error message, else the first diagnostic over its tolerance."""
        lines = answer["stderr"].splitlines()
        for line in lines:
            if line.startswith("schurcol "):
                return line[:200]
        for line in lines:
            try:
                diag = json.loads(line)
            except ValueError:
                continue
            if isinstance(diag, dict) and not diag.get("residual", 0) <= diag.get("tolerance", 0):
                return line[:200]
        return lines[-1][:200] if lines else None


def build(name: str, seed: int, root: Path, out: Path) -> Workload:
    if name == "cli_pipeline":
        return CliPipeline(seed, root, out)
    return {"schur_ladder": SchurLadder, "zeros_desk": ZerosDesk, "eval_sim": EvalSim}[name](seed)
