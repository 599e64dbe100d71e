"""Benchmark for stpa-loc: one closed-loop client driving the CLI.

    python3 perfbench/run.py --workload report-500 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package need not be installed. The
benchmark generates the workload's inputs from the seed, then repeats
rounds until ``--seconds`` have passed. A round is one pass of the
workload's CLI script, each command a fresh ``python -m stpa_loc.cli``
process with ``PYTHONPATH=src`` started only after the previous one
exited; then three set-up probes; then one in-process pass of the library
calls for the same inputs. Every output is checked. With ``--trace 1``
it instead runs the traced pass and reports per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402  (siblings of this file)
import gen  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload  # noqa: E402

# What every command pays before it does any work: a fresh interpreter
# that imports the CLI and loads the bundled catalog.
SETUP_CODE = "import stpa_loc.cli, stpa_loc.catalog as c; c.load_catalog()"
IMPORT_CODE = "import time; t = time.perf_counter(); import stpa_loc.cli; print(time.perf_counter() - t)"
SETUP_PER_ROUND = 3
MIN_ROUNDS = 3
TRACED_PASSES = 3
OVERHEAD_REPEATS = 3
IMPORT_PROBES = 5
TAIL_BEYOND = 10
GOLDEN = ("effect_to_cause.csv", "cause_to_effect.csv")

# Layers whose time at n is compared with their time at n/4.
GROWTH_LAYERS = (
    "dsl.parse_model", "dsl.parse_scenarios", "model.validate_model", "model.model_fingerprint",
    "analysis.enumerate_ucas", "report.build_table", "analysis.trace_pathway",
    "analysis.ledger_register", "analysis.ledger_load", "report.render_json",
)


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    wall: float = 0.0
    rss_kb: int = 0


class Runner:
    """Runs one child at a time through spawn.py, which reaps it with wait4."""

    def __init__(self, work: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
        env["PYTHONIOENCODING"] = "utf-8"
        env.pop("STPA_LOC_CATALOG", None)
        self.out = work / "child.stdout"
        self.err = work / "child.stderr"
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawn.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )

    def python(self, args: list[str]) -> Result:
        self.spawner.stdin.write(json.dumps([[sys.executable, *args], str(self.out), str(self.err)]) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench/spawn.py exited")
        code, wall, rss_kb = json.loads(reply)
        return Result(
            code,
            self.out.read_text(encoding="utf-8", errors="replace"),
            self.err.read_text(encoding="utf-8", errors="replace"),
            wall,
            rss_kb,
        )

    def cli(self, argv: list[str]) -> Result:
        return self.python(["-m", "stpa_loc.cli", *argv])

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()


class Tally:
    """Operations attempted and failed; every CLI command and API check is one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problems[0]}")


class Session:
    """One workload on one input set: runs and checks commands and passes."""

    def __init__(self, workload: Workload, inputs: Inputs, runner: Runner, tally: Tally):
        self.workload = workload
        self.inputs = inputs
        self.runner = runner
        self.tally = tally
        self.context: dict = {"golden": inputs.loaded["golden"]}
        self.digests: dict[tuple, str] = {}

    def check_cli(self, entry: tuple, result: Result) -> None:
        kind, argv = entry[0], entry[1]
        if len(entry) > 2:
            self.context["exposure"] = entry[2]
        problems = checks.check_command(kind, result, self.inputs.facts, self.context)
        if self.inputs.cli_ledger not in argv:
            # determinism contract: a read-only command prints the same bytes every time
            digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
            if self.digests.setdefault(tuple(argv), digest) != digest:
                problems = problems + ["stdout differs from an earlier run of the same command"]
        self.tally.record(f"cli {kind}", problems)

    def cli_pass(self, cycle: int) -> tuple[float, list[Result]]:
        script = self.workload.script(self.inputs, cycle)
        results = []
        start = time.perf_counter()
        for entry in script:
            results.append(self.runner.cli(entry[1]))
        wall = time.perf_counter() - start
        for entry, result in zip(script, results):
            self.check_cli(entry, result)
        return wall, results

    def api_pass(self, repeat: int = 1) -> float:
        """Seconds per API pass, over ``repeat`` passes run back to back."""
        start = time.perf_counter()
        deferred = [check for _ in range(repeat) for check in self.workload.api(self.inputs)]
        wall = (time.perf_counter() - start) / repeat
        for name, check in deferred:
            self.tally.record(f"api {name}", check())
        return wall

    def setup_probe(self) -> float:
        result = self.runner.python(["-c", SETUP_CODE])
        ok = result.code == 0 and not result.stdout and not result.stderr
        self.tally.record("setup", [] if ok else [f"exit {result.code}: {result.stderr[:200]}"])
        return result.wall


def run_main(argv: list[str]) -> Result:
    """``stpa_loc.cli.main`` in this process, with its output captured."""
    from stpa_loc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # reported as a failed check, with the traceback
            code = -1
            traceback.print_exc()
    return Result(code, out.getvalue(), err.getvalue())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# The two kinds of run


def measure(session: Session, seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics over rounds of CLI pass, set-up probes and API pass."""
    inputs = session.inputs
    plan = len(inputs.facts["ledger"]["cycles"]) if session.workload.follows_plan else None
    if "ledger" in inputs.facts:
        inputs.reset_cli_ledger()
    session.runner.python(["-c", SETUP_CODE])  # compiles the package's bytecode
    session.api_pass()  # warm-up, checked but not timed
    passes, commands, api, setup = [], [], [], []
    peak_kb = 0
    start = time.perf_counter()
    cycle = 0
    while True:
        wall, results = session.cli_pass(cycle)
        cycle += 1
        passes.append(wall)
        commands += [r.wall for r in results]
        peak_kb = max([peak_kb] + [r.rss_kb for r in results])
        setup += [session.setup_probe() for _ in range(SETUP_PER_ROUND)]
        api.append(session.api_pass(session.workload.api_repeat))
        if time.perf_counter() - start >= seconds and len(passes) >= MIN_ROUNDS:
            break
        if plan is not None and cycle >= plan:
            break
    ordered = sorted(commands)
    # the highest percentile with TAIL_BEYOND samples above it; the maximum
    # when there are too few samples for that
    tail_at = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    tail_pct = 100.0 * (tail_at + 1) / len(ordered)
    failed_ratio = session.tally.failed / session.tally.attempted
    metrics = {
        "pass_s": metric(statistics.median(passes), "s"),
        "cmd_p50_s": metric(statistics.median(commands), "s"),
        "cmd_tail_s": metric(ordered[tail_at], "s"),
        "api_pass_s": metric(statistics.median(api), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    notes = {
        "pass_s": f"median of {len(passes)} passes of {len(results)} commands",
        "cmd_p50_s": f"median of {len(commands)} commands",
        "cmd_tail_s": f"p{tail_pct:.1f}: {len(ordered) - tail_at - 1} of {len(ordered)} commands took longer",
        "api_pass_s": f"median of {len(api)} samples of {session.workload.api_repeat} in-process passes"
                      " after 1 warm-up",
        "peak_rss_mb": f"largest max-RSS of {len(commands)} CLI children",
        "setup_s": f"median of {len(setup)} fresh interpreters",
    }
    lines = [f"  {name:<18}{m['value']:>12.6f} {m['unit']:<4} {notes[name]}" for name, m in metrics.items()]
    lines.append(
        f"  {'ops_failed_ratio':<18}{failed_ratio:>12.6f} {'ratio':<4} "
        f"{session.tally.failed} of {session.tally.attempted} commands and API checks failed (printed only)"
    )
    return metrics, lines


def traced(session: Session, quarter: Session, trace_path: Path, meta: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from spans around the library's public functions."""
    inputs, workload = session.inputs, session.workload
    tracer = spans.Tracer()
    script = workload.script(inputs, 0)
    session.api_pass()  # warm-up
    # traced and untraced passes alternate, so host drift hits both alike
    untraced, traced_walls = [], []
    for i in range(TRACED_PASSES):
        untraced.append(session.api_pass())
        tracer.group = f"api:n:{i}"
        with tracer.instrument():
            traced_walls.append(session.api_pass())
    with tracer.instrument():
        tracer.group = "warm:n/4"
        quarter.api_pass()
        for i in range(TRACED_PASSES):
            tracer.group = f"api:n/4:{i}"
            quarter.api_pass()

    # the script in-process under the tracer and as subprocesses, alternated
    inproc: list[list[float]] = [[] for _ in script]
    walls: list[list[float]] = [[] for _ in script]
    for r in range(OVERHEAD_REPEATS):
        if "ledger" in inputs.facts:
            inputs.reset_cli_ledger()
        with tracer.instrument():
            for j, entry in enumerate(script):
                tracer.group = f"cli:{j}:{r}"
                session.check_cli(entry, run_main(entry[1]))
                inproc[j].append(tracer.root_total(tracer.group))
        if "ledger" in inputs.facts:
            inputs.reset_cli_ledger()
        for j, entry in enumerate(script):
            result = session.runner.cli(entry[1])
            session.check_cli(entry, result)
            walls[j].append(result.wall)
    overhead = statistics.median(
        statistics.median(w) - statistics.median(t) for w, t in zip(walls, inproc)
    )
    imports = []
    for _ in range(IMPORT_PROBES):
        result = session.runner.python(["-c", IMPORT_CODE])
        session.tally.record("import", [] if result.code == 0 else [result.stderr[:200]])
        imports.append(float(result.stdout) if result.code == 0 else 0.0)

    full = [tracer.summary(f"api:n:{i}") for i in range(TRACED_PASSES)]
    small = [tracer.summary(f"api:n/4:{i}") for i in range(TRACED_PASSES)]

    def med(name: str, key: str, groups=full) -> float:
        return spans.median_of(groups, name, key)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, dict] = {}
    for module, functions in spans.LAYERS.items():
        for fn in functions:
            out[f"{module}.{fn}.s"] = metric(med(f"{module}.{fn}", "self_s"), "s")
    for layer in ("dsl.parse_model", "dsl.parse_scenarios"):
        out[f"{layer}.bytes_per_s"] = metric(ratio(med(layer, "bytes"), med(layer, "self_s")), "B/s")
    out["model.validate_model.calls"] = metric(med("model.validate_model", "calls"), "count")
    out["model.validate_model.diagnostics"] = metric(med("model.validate_model", "diagnostics"), "count")
    out["analysis.enumerate_ucas.confirmed_ratio"] = metric(
        ratio(med("analysis.enumerate_ucas", "confirmed"), med("analysis.enumerate_ucas", "ucas")), "ratio")
    out["report.build_table.per_row_us"] = metric(
        1e6 * ratio(med("report.build_table", "self_s"), med("report.build_table", "rows")), "us")
    out["analysis.trace_pathway.per_scenario_us"] = metric(
        1e6 * ratio(med("analysis.trace_pathway", "self_s"), med("analysis.trace_pathway", "calls")), "us")
    out["analysis.match_catalog.hit_ratio"] = metric(
        ratio(med("analysis.match_catalog", "hits"), med("analysis.match_catalog", "calls")), "ratio")
    out["catalog.generate_prompts.prompts"] = metric(med("catalog.generate_prompts", "prompts"), "count")
    out["analysis.ledger_load.records"] = metric(
        ratio(med("analysis.ledger_load", "records"), med("analysis.ledger_load", "calls")), "count")
    out["cli.import.s"] = metric(statistics.median(imports), "s")
    out["cli.overhead.s"] = metric(overhead, "s")
    for layer in GROWTH_LAYERS:
        out[f"{layer}.growth_4x"] = metric(
            ratio(med(layer, "total_s"), med(layer, "total_s", small)), "ratio")
    out["trace.overhead_ratio"] = metric(statistics.median(traced_walls) / statistics.median(untraced), "ratio")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path, meta)
    lines = [f"  {name:<42}{m['value']:>16.6f} {m['unit']}" for name, m in out.items()]
    lines.append(f"  spans written to {trace_path.relative_to(ROOT)}")
    return out, lines


# --------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_inputs(workload: str, seed: int, work: Path, scale: int) -> Inputs:
    facts = gen.write_inputs(workload, seed, work, scale)
    inputs = Inputs(root=ROOT, work=work, facts=facts)
    inputs.loaded["golden"] = {
        name: (ROOT / "tests" / "golden" / name).read_text(encoding="utf-8") for name in GOLDEN
    }
    import stpa_loc.analysis
    import stpa_loc.catalog
    import stpa_loc.cli
    import stpa_loc.dsl
    import stpa_loc.model
    import stpa_loc.report

    inputs.lib = stpa_loc
    return inputs


def main() -> int:
    parser = argparse.ArgumentParser(description="stpa-loc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/stpa_loc/cli.py", "tests/golden/effect_to_cause.csv") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: run from a checkout of stpa-loc; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    meta = {
        "workload": args.workload, "seed": args.seed, "python": platform.python_version(),
        "git_sha": git_sha(), "nproc": os.cpu_count(), "sizes": gen.SIZES[args.workload],
    }
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    tally = Tally()
    runner = None
    try:
        work.mkdir(parents=True)
        runner = Runner(work)  # before the inputs make this process large
        workload = WORKLOADS[args.workload]
        inputs = load_inputs(args.workload, args.seed, work / "n", 1)
        session = Session(workload, inputs, runner, tally)
        if args.trace:
            quarter = Session(workload, load_inputs(args.workload, args.seed, work / "n4", 4), runner, tally)
            trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-s{args.seed}.jsonl"
            metrics, lines = traced(session, quarter, trace_path, meta)
        else:
            metrics, lines = measure(session, args.seconds)
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    print("\n".join(lines))
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
