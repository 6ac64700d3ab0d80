"""The benchmark's workloads: single-caller closed loops over seeded inputs.

Each operation is timed alone; generating its input and checking its
answer happen between operations, outside the timed interval, and a
run measures until the timed operations add up to the requested
seconds of wall-clock time.  An untraced run reports the end-to-end
metrics from each operation's CPU time, normalised by the yardstick
timed around it (``yardstick.py``): on a shared virtual host the wall
clock also counts the time the hypervisor gives to other machines,
and the speed of the host drifts with their load.  A traced
run gives every input to the program twice, once plain and once with
spans installed, in alternating order, until the plain operations add
up to half the requested seconds.  It reports the per-layer metrics
from the spans, and the paired difference as tracing overhead.
"""

from __future__ import annotations

import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Iterator

import inputs
import spans
import yardstick
from checkout import ROOT, WORK, child_env, import_bwrum

SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 15
SETUP_MIN_SECONDS = 1.0
CHILD_TIMEOUT_S = 150
REPRESENTABLE = "Representable"
NOT_REPRESENTABLE = "NotRepresentable"
MAX_REPORTED_PROBLEMS = 5
CLI_COMMANDS = ("validate", "poly", "check", "construct", "forward", "simulate", "ingest")


@dataclass(frozen=True)
class Timing:
    """One operation's time: wall and CPU seconds, and normalised CPU seconds."""

    wall: float
    cpu: float
    norm: float | None = None  # None when no yardstick was timed around it


@dataclass
class Run:
    """What one workload run measured, before it is printed."""

    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)  # wall seconds, per op
    cpu: list[float] = field(default_factory=list)  # CPU seconds, per op
    norm: list[float] = field(default_factory=list)  # normalised seconds, per op
    labels: list[str] = field(default_factory=list)  # input kind or command, per op
    busy: float = 0.0  # wall seconds of timed work
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(problem)

    def absorb(self, traced: "Run") -> None:
        """Count the traced operations and their failures in this run too."""
        self.attempted += traced.attempted
        self.failed += traced.failed
        self.problems += traced.problems[: max(0, MAX_REPORTED_PROBLEMS - len(self.problems))]

    def timed(self, label: str, timing: Timing, problem: str | None) -> None:
        self.attempted += 1
        self.latencies.append(timing.wall)
        self.cpu.append(timing.cpu)
        if timing.norm is not None:
            self.norm.append(timing.norm)
        self.labels.append(label)
        self.busy += timing.wall
        if problem:
            self.fail(problem)


def setup_samples(first: float, again: Callable[[], float]) -> list[float]:
    """Repeat set-up at least three times, and while the samples add up to under a second."""
    samples = [first]
    while len(samples) < SETUP_MIN_SAMPLES or (
        sum(samples) < SETUP_MIN_SECONDS and len(samples) < SETUP_MAX_SAMPLES
    ):
        samples.append(again())
    return samples


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered), 10


def end_to_end(run: Run, setup: list[float], peak_rss_kib: int) -> None:
    value, pct, beyond = tail(run.norm)
    run.metrics.update(
        {
            "setup_s": (median(setup), "s"),
            "norm_ops_per_s": (len(run.norm) / sum(run.norm), "1/s"),
            "norm_p50_ms": (median(run.norm) * 1000, "ms"),
            "norm_tail_ms": (value * 1000, "ms"),
            "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
        }
    )
    run.notes += [
        f"norm_tail_ms is p{pct:.1f}: {beyond} of {len(run.norm)} samples beyond it",
        f"setup_s is the median of {len(setup)} (normalised s): "
        + ", ".join(f"{s:.4f}" for s in setup),
        f"failed_ratio {run.failed}/{run.attempted} = {run.failed / max(run.attempted, 1):.4f}",
        f"plain CPU time: {run.attempted / sum(run.cpu):.4g} ops/s, "
        f"p50 {median(run.cpu) * 1000:.4g} ms; CPU/normalised {sum(run.cpu) / sum(run.norm):.3f}",
        f"wall clock: {run.attempted / run.busy:.4g} ops/s, "
        f"p50 {median(run.latencies) * 1000:.4g} ms; CPU/wall {sum(run.cpu) / run.busy:.3f}",
        "normalised p50 ms by input: " + ", ".join(
            f"{label} {median(t for t, l in zip(run.norm, run.labels) if l == label) * 1000:.2f}"
            f" (x{run.labels.count(label)})"
            for label in dict.fromkeys(run.labels)
        ),
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics, from spans recorded around bwrum's entry points

def span_metrics(recs: list[spans.Record], ops: int) -> dict[str, float]:
    """Every span-derived per-layer metric; a layer that never ran reads 0."""

    def ms(name, where=lambda r: True):
        return median(r.seconds for r in recs if r.name == name and where(r)) * 1000

    def count(name, tag):
        return sum(1 for r in recs if r.name == name and r.tag == tag)

    def raised(r):
        return isinstance(r.tag, str) and r.tag.startswith(spans.RAISED)

    def tagged_total(name):
        return sum(r.tag for r in recs if r.name == name and isinstance(r.tag, int))

    def per_op(total):
        return total / ops if ops else 0.0

    sim_seconds = sum(r.seconds for r in recs if r.name == "simulate.simulate_dataset")
    values = {
        "polynomials.table_ms": ms("polynomials.all_polynomials"),
        "polynomials.sign_test_ms": median(
            r.seconds - r.child_seconds.get("measure", 0.0)
            for r in recs
            if r.name == "polynomials.check_representable"
        )
        * 1000,
        "measure.build_ms.yes": ms("measure.build_construction", lambda r: not raised(r)),
        "measure.build_ms.no": ms("measure.build_construction", raised),
        "measure.mode.exact_solve": count("measure.build_construction", "exact-solve"),
        "measure.mode.kernel_completed": count("measure.build_construction", "kernel-completed"),
        "measure.mode.recursive_candidate": count(
            "measure.build_construction", "recursive-candidate"
        ),
        "measure.inconsistent": count(
            "measure.build_construction", spans.RAISED + "ConstructionInconsistent"
        ),
        "measure.verify_ms": ms("measure.verify_reconstruction"),
        "measure.forward_ms": ms("measure.system_from_distribution"),
        "lp.oracle_ms.phase1": ms("lp.lp_feasibility_oracle", lambda r: r.tag == "phase1"),
        "lp.oracle_ms.presolve": ms("lp.lp_feasibility_oracle", lambda r: r.tag == "presolve"),
        "lp.method.phase1": count("lp.lp_feasibility_oracle", "phase1"),
        "lp.method.presolve": count("lp.lp_feasibility_oracle", "presolve"),
        "io.load_ms": ms("io.load_json"),
        "io.dump_ms": ms("io.dump_json"),
        "io.bytes_in": per_op(tagged_total("io.load_json")),
        "io.bytes_out": per_op(tagged_total("io.dump_json")),
        "simulate.simulate_dataset_ms": ms("simulate.simulate_dataset"),
        "simulate.draws_per_s": (
            tagged_total("simulate.simulate_dataset") / sim_seconds if sim_seconds else 0.0
        ),
        "core.from_counts_ms": ms("core.from_counts"),
        "core.validate_ms": ms("core.validate"),
    }
    for layer in spans.LAYERS:
        values[f"self_ms.{layer}"] = per_op(
            sum(r.own for r in recs if spans.layer_of(r.name) == layer) * 1000
        )
    return values


LAYER_METRICS: dict[str, str] = {  # name -> unit, in the order they are reported
    "polynomials.table_ms": "ms",
    "polynomials.sign_test_ms": "ms",
    "polynomials.sign_test_false_pass": "count",
    "polynomials.sign_test_blends": "count",
    "measure.build_ms.yes": "ms",
    "measure.build_ms.no": "ms",
    "measure.mode.exact_solve": "count",
    "measure.mode.kernel_completed": "count",
    "measure.mode.recursive_candidate": "count",
    "measure.inconsistent": "count",
    "measure.verify_ms": "ms",
    "measure.forward_ms": "ms",
    "measure.elimination_s": "s",
    "measure.witness_support": "count",
    "measure.witness_max_den_digits": "digits",
    "lp.oracle_ms.phase1": "ms",
    "lp.oracle_ms.presolve": "ms",
    "lp.method.phase1": "count",
    "lp.method.presolve": "count",
    "lp.elimination_s": "s",
    "lp.witness_support": "count",
    **{f"cli.{kind}_ms.{cmd}": "ms" for kind in ("wall", "handler") for cmd in CLI_COMMANDS},
    "cli.startup_ms": "ms",
    "io.load_ms": "ms",
    "io.dump_ms": "ms",
    "io.bytes_in": "bytes",
    "io.bytes_out": "bytes",
    "simulate.simulate_dataset_ms": "ms",
    "simulate.draws_per_s": "1/s",
    "core.from_counts_ms": "ms",
    "core.validate_ms": "ms",
    **{f"self_ms.{layer}": "ms" for layer in (*spans.LAYERS, "cli")},
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_report(run: Run, values: dict[str, float], untraced: float, traced: float, ops: int) -> None:
    """Fill every per-layer metric: measured values, zeros for idle layers, overhead."""
    values = dict(values)
    values["trace.overhead_ms"] = (traced - untraced) / ops * 1000
    values["trace.overhead_pct"] = (traced - untraced) / untraced * 100
    run.metrics.update({name: (values.get(name, 0.0), unit) for name, unit in LAYER_METRICS.items()})
    run.notes.append(
        f"tracing overhead over {ops} ops: untraced {untraced:.3f} s, traced {traced:.3f} s"
    )


# ---------------------------------------------------------------------------
# Library workloads: one call into bwrum per operation


@dataclass(frozen=True)
class Outcome:
    verdict: str
    witness: dict | None = None
    verified: bool | None = None
    sign_test_passed: bool | None = None


def decide(bw, system) -> Outcome:
    """``check --witness`` in the library; a failed witness build means NotRepresentable."""
    try:
        report = bw.check_representable(system, construct_witness=True)
    except bw.WitnessConstructionFailed:
        return Outcome(NOT_REPRESENTABLE, sign_test_passed=True)
    witness = report.witness.mass if report.witness is not None else None
    return Outcome(report.verdict, witness, report.witness_verified, not report.negatives)


def oracle(bw, system) -> Outcome:
    result = bw.lp_feasibility_oracle(system)
    if not result.feasible:
        return Outcome(NOT_REPRESENTABLE)
    return Outcome(REPRESENTABLE, result.distribution.mass)


def check_outcome(case: inputs.Case, outcome: Outcome) -> str | None:
    """Why the outcome is wrong for the case, judged without bwrum; None if right."""
    if not case.representable:
        if outcome.verdict != NOT_REPRESENTABLE or outcome.witness is not None:
            return f"{case.kind}: expected NotRepresentable, got {outcome.verdict}"
        return None
    if outcome.verdict != REPRESENTABLE or outcome.witness is None:
        return f"{case.kind}: expected Representable with a witness, got {outcome.verdict}"
    if outcome.verified is False:
        return f"{case.kind}: witness reported as not verified"
    problems = inputs.witness_problems(case.n, case.cells, outcome.witness)
    return f"{case.kind}: " + "; ".join(problems) if problems else None


def den_digits(witness: dict) -> int:
    return max(len(str(p.denominator)) for p in witness.values())


@dataclass(frozen=True)
class LibraryWorkload:
    name: str
    n: int
    layer: str  # the bwrum module whose elimination set-up is timed
    op: Callable
    warmup_kind: str

    def first_build(self, bw, n: int) -> tuple[float, str | None]:
        case = inputs.warmup_case(n, self.name, self.warmup_kind)
        system = bw.new_system(n, case.entries())
        normalise = yardstick.Normaliser()
        start = process_time()
        outcome = self.op(bw, system)
        elapsed = normalise(process_time() - start)
        return elapsed, check_outcome(case, outcome)

    def cold_build(self, n: int) -> float:
        """Normalised seconds of the first build in this (fresh) interpreter."""
        elapsed, problem = self.first_build(import_bwrum(), n)
        if problem:
            raise SystemExit(f"warm-up answer is wrong: {problem}")
        return elapsed

    def _call(self, bw, case: inputs.Case, tracer: spans.Tracer | None = None, op=None,
              normalise: yardstick.Normaliser | None = None):
        """Time one operation on a fresh system object; (timing, outcome, problem)."""
        system = bw.new_system(case.n, case.entries())
        if tracer is not None:
            tracer.install()
            tracer.op = op
        start, cpu_start = perf_counter(), process_time()
        try:
            outcome = self.op(bw, system)
            error = None
        except Exception as exc:  # counted as a failed op; the loop goes on
            outcome, error = None, exc
        elapsed, cpu = perf_counter() - start, process_time() - cpu_start
        timing = Timing(elapsed, cpu, normalise(cpu) if normalise else None)
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
        if error is not None:
            return timing, None, f"{case.kind}: unexpected {type(error).__name__}: {error}"
        return timing, outcome, check_outcome(case, outcome)

    def run(self, n: int, seed: int, seconds: float, trace: bool) -> Run:
        bw = import_bwrum()
        run = Run()
        cases = inputs.case_stream(n, self.name, seed)
        if not trace:
            setup, problem = self.first_build(bw, n)
            if problem:
                run.fail(f"warm-up: {problem}")
            samples = setup_samples(setup, lambda: self._cold_build_child(n))
            normalise = yardstick.Normaliser()
            while run.busy < seconds:
                case = next(cases)
                timing, _, problem = self._call(bw, case, normalise=normalise)
                run.timed(case.kind, timing, problem)
            end_to_end(run, samples, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            return run

        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.op = "cold"
            cold, problem = self.first_build(bw, n)
            tracer.op = "warm"
            warm, _ = self.first_build(bw, n)
        finally:
            tracer.op = None
            tracer.uninstall()
        if problem:
            run.fail(f"warm-up: {problem}")
        # Each input runs untraced and traced, in alternating order, so the
        # overhead estimate is paired and does not drift with the machine.
        traced_run = Run()
        outcomes: list = []
        while run.busy < seconds / 2:
            case, op = next(cases), run.attempted
            for traced in (False, True) if op % 2 == 0 else (True, False):
                if traced:
                    timing, outcome, problem = self._call(bw, case, tracer, op)
                    traced_run.timed(case.kind, timing, problem)
                    outcomes.append((case, outcome))
                else:
                    timing, _, problem = self._call(bw, case)
                    run.timed(case.kind, timing, problem)
        ops, untraced = run.attempted, run.busy
        run.absorb(traced_run)
        values = span_metrics(spans.records(tracer.spans, range(ops)), ops)
        values[f"{self.layer}.elimination_s"] = cold - warm
        values.update(self.outcome_metrics(outcomes))
        layer_report(run, values, untraced, traced_run.busy, ops)
        return run

    def outcome_metrics(self, outcomes: list) -> dict[str, float]:
        witnesses = [o.witness for _, o in outcomes if o is not None and o.witness]
        values = {f"{self.layer}.witness_support": median(len(w) for w in witnesses)}
        if self.layer == "measure":
            blends = [o for c, o in outcomes if c.kind == "blend" and o is not None]
            values["measure.witness_max_den_digits"] = median(den_digits(w) for w in witnesses)
            values["polynomials.sign_test_false_pass"] = sum(1 for o in blends if o.sign_test_passed)
            values["polynomials.sign_test_blends"] = len(blends)
        return values

    def _cold_build_child(self, n: int) -> float:
        script = ROOT / "perfbench" / "cold_build.py"
        done = subprocess.run(
            [sys.executable, str(script), self.name, str(n)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"cold build child failed: {done.stderr.strip()[-500:]}")
        return float(done.stdout.strip().splitlines()[-1])


LIBRARY = {
    "decide-n5": LibraryWorkload("decide-n5", 5, "measure", decide, "full"),
    "oracle-n4": LibraryWorkload("oracle-n4", 4, "lp", oracle, "blend"),
}


# ---------------------------------------------------------------------------
# The command-line workload: one bwrum process per operation

CLI_SESSIONS = 24
CLI_TRIALS = 40
CLI_SMOOTHING = 1
CLI_ENTRY = "from bwrum.cli import main; main()"


@dataclass(frozen=True)
class Session:
    """Files for one user session and what every step must answer."""

    directory: Path
    n: int
    system_file: str
    cells: inputs.Cells  # of the system file
    representable: bool
    dist_n: int
    dist_cells: inputs.Cells  # induced by dist.json
    sim_seed: int

    def steps(self) -> list[tuple[str, list[str]]]:
        report = ["--out", "report.json"]
        return [
            ("validate", ["validate", self.system_file, *report]),
            ("poly", ["poly", self.system_file, *report]),
            ("check", ["check", self.system_file, "--witness", *report]),
            ("construct", ["construct", self.system_file, "--method", "both", *report]),
            ("forward", ["forward", "dist.json", *report]),
            ("simulate", ["simulate", "dist.json", "--design", "design.json",
                          "--seed", str(self.sim_seed), "--out", "counts.json"]),
            ("ingest", ["ingest", "counts.json", "--smoothing", str(CLI_SMOOTHING), *report]),
        ]


def write_sessions(root: Path, seed: int, count: int = CLI_SESSIONS) -> list[Session]:
    """Sessions alternate n=4 and n=3; every third runs its system steps on negk3."""
    if root.exists():
        shutil.rmtree(root)
    rng = random.Random(f"cli-cold:{seed}")
    sessions = []
    for i in range(count):
        n = 4 if i % 2 == 0 else 3
        directory = root / f"s{i:02d}"
        directory.mkdir(parents=True)
        mass = inputs.random_masses(rng, n, math.factorial(n))
        dist_cells = inputs.forward(n, mass)
        _write(directory / "dist.json", inputs.distribution_payload(n, mass))
        _write(directory / "design.json", inputs.design_payload(n, CLI_TRIALS))
        if i % 3 == 2:
            cells, system_n, representable = inputs.negk3_cells(), 3, False
            _write(directory / "negk3.json", inputs.system_payload(3, cells, ["1", "2", "3"]))
            system_file = "negk3.json"
        else:
            cells, system_n, representable = dist_cells, n, True
            _write(directory / "system.json", inputs.system_payload(n, cells))
            system_file = "system.json"
        sessions.append(Session(directory, system_n, system_file, cells, representable,
                                n, dist_cells, rng.randrange(1 << 30)))
    return sessions


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def check_cli(session: Session, command: str, code: int, report: dict | None) -> str | None:
    """Why a CLI step answered wrongly, judged without bwrum; None if right."""
    where = f"{command} in {session.directory.name}"
    if report is None or report.get("schema") != "bwrum-report/1":
        return f"{where}: exit {code}, no bwrum-report/1 report"
    if "error" in report:
        return f"{where}: exit {code}, error {report['error']}"
    try:
        ok = _cli_answer_ok(session, command, code, report)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return f"{where}: malformed output ({type(exc).__name__}: {exc})"
    return None if ok else f"{where}: wrong answer (exit {code})"


def _cli_answer_ok(session: Session, command: str, code: int, report: dict) -> bool:
    yes = session.representable
    if command == "validate":
        return code == 0 and report["valid"] is True
    if command == "poly":
        values = [Fraction(row["K"]) for row in report["polynomials"]]
        n = session.n
        return (code == 0 and len(values) == n * (n - 1) * 2 ** (n - 2)
                and (min(values) >= 0) == yes)
    if command == "check":
        if not yes:
            return code == 2 and report["verdict"] == NOT_REPRESENTABLE
        witness = inputs.masses_from_rows(report["witness"])
        return (code == 0 and report["verdict"] == REPRESENTABLE
                and report["witness_verified"] is True
                and not inputs.witness_problems(session.n, session.cells, witness))
    if command == "construct":
        if not yes:
            return (code == 2 and report["methods_agree"] is True
                    and report["verdict"] == NOT_REPRESENTABLE)
        witness = inputs.masses_from_rows(report["distribution"])
        return (code == 0 and report["methods_agree"] is True
                and report["verdict"] == REPRESENTABLE and report["verified"] is True
                and not inputs.witness_problems(session.n, session.cells, witness))
    if command == "forward":
        return code == 0 and inputs.cells_from_payload(report["system"]) == session.dist_cells
    counts = json.loads((session.directory / "counts.json").read_text(encoding="utf-8"))
    if command == "simulate":
        per_subset = Counter()
        for record in counts["records"]:
            per_subset[inputs.mask_of(record["members"])] += record["count"]
        return (code == 0 and set(per_subset.values()) == {CLI_TRIALS}
                and len(per_subset) == len(inputs.choice_sets(session.dist_n)))
    if command == "ingest":
        expected = inputs.smoothed_cells(session.dist_n, counts, Fraction(CLI_SMOOTHING))
        return code == 0 and inputs.cells_from_payload(report["system"]) == expected
    raise ValueError(f"no check for command {command!r}")


@dataclass
class CliCall:
    command: str
    timing: Timing  # CPU time is the child's user + system time
    code: int
    report: dict | None


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def call_cli(prefix: list[str], session: Session, command: str, args: list[str],
             normalise: yardstick.Normaliser | None = None) -> CliCall:
    out = session.directory / "report.json"
    out.unlink(missing_ok=True)
    start, cpu_start = perf_counter(), children_cpu()
    done = subprocess.run(
        [*prefix, *args], cwd=session.directory, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    wall, cpu = perf_counter() - start, children_cpu() - cpu_start
    timing = Timing(wall, cpu, normalise(cpu) if normalise else None)
    text = out.read_text(encoding="utf-8") if out.exists() else done.stdout
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        report = None
    return CliCall(command, timing, done.returncode, report)


def cli_calls(sessions: list[Session]) -> Iterator[tuple[Session, str, list[str]]]:
    while True:
        for session in sessions:
            for command, args in session.steps():
                yield session, command, args


def run_cli(seed: int, seconds: float, trace: bool) -> Run:
    import_bwrum()
    root = WORK / f"cli-cold-{seed}"
    run = Run()

    def write() -> float:
        normalise = yardstick.Normaliser()
        start = process_time()
        write_sessions(root, seed)
        return normalise(process_time() - start)

    setup = setup_samples(write(), write)
    sessions = write_sessions(root, seed)
    # Compile bytecode once, as an installed package would have it.
    subprocess.run([sys.executable, "-c", "import bwrum.cli"], cwd=ROOT, env=child_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)

    plain = [sys.executable, "-c", CLI_ENTRY]

    def step(target: Run, prefix: list[str], session, command, args, normalise=None) -> CliCall:
        call = call_cli(prefix, session, command, args, normalise)
        target.timed(command, call.timing, check_cli(session, command, call.code, call.report))
        return call

    steps = cli_calls(sessions)
    if not trace:
        normalise = yardstick.Normaliser()
        while run.busy < seconds:
            step(run, plain, *next(steps), normalise)
        end_to_end(run, setup, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return run

    span_dir = root / "spans"
    span_dir.mkdir()
    shim = str(ROOT / "perfbench" / "cli_shim.py")
    calls: list[CliCall] = []
    traced_run = Run()
    # Each step runs plain and through the tracing shim, in alternating order.
    while run.busy < seconds / 2:
        session, command, args = next(steps)
        op = run.attempted
        for traced in (False, True) if op % 2 == 0 else (True, False):
            if traced:
                prefix = [sys.executable, shim, str(span_dir / f"{op:05d}.json")]
                step(traced_run, prefix, session, command, args)
            else:
                calls.append(step(run, plain, session, command, args))
    ops, untraced = run.attempted, run.busy
    run.absorb(traced_run)

    recs: list[spans.Record] = []
    outside = 0.0
    for i, wall in enumerate(traced_run.latencies):
        path = span_dir / f"{i:05d}.json"  # absent if the command crashed
        call_spans = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        call_recs = spans.records(call_spans)
        recs += call_recs
        outside += wall - sum(r.seconds for r in call_recs if r.top_level)
    values = span_metrics(recs, ops)
    values["self_ms.cli"] = outside / ops * 1000
    for command in CLI_COMMANDS:
        mine = [c for c in calls if c.command == command]
        values[f"cli.wall_ms.{command}"] = median(c.timing.wall for c in mine) * 1000
        values[f"cli.handler_ms.{command}"] = median(
            c.report.get("timing_ms", 0) for c in mine if c.report)
    values["cli.startup_ms"] = median(
        c.timing.wall * 1000 - c.report.get("timing_ms", 0) for c in calls if c.report)
    layer_report(run, values, untraced, traced_run.busy, ops)
    return run


def _library(name: str) -> Callable[[int, float, bool], Run]:
    workload = LIBRARY[name]
    return lambda seed, seconds, trace: workload.run(workload.n, seed, seconds, trace)


WORKLOADS: dict[str, Callable[[int, float, bool], Run]] = {
    **{name: _library(name) for name in LIBRARY},
    "cli-cold": run_cli,
}
