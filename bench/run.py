"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload grid-model --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the program is imported from its
``src/`` directory, and the generated inputs live in ``.bench_work/``
there until the run ends.  Human-readable detail lines come first on
stdout; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones of the traced run, whose spans are also written to
``.bench_out/``.  NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid-model", "cut-loop", "exact-oracles")
SETUP_REPEATS = 3
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs rounds of a workload's operations, timing and checking each.

    The first output for an input key is checked in full; later outputs
    for the same key must have the same digest.
    """

    def __init__(self, workload, digest):
        self.workload = workload
        self.digest = digest
        self.samples: dict[str, list[float]] = {kind: [] for kind in workload.kinds}
        self.digests: dict[str, str] = {}
        self.round_digests: dict[str, str] = {}  # round 0's output digest per input key
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def round(self, r: int, tracer=None, deadline=None) -> float | None:
        """Run round r; returns the seconds spent inside the program.

        With a deadline (a perf_counter reading), the round stops before
        the first operation whose last run would not end by then, and
        returns None.
        """
        total = 0.0
        for op in self.workload.round_ops(r):
            last = self.samples[op.kind]
            if deadline is not None and last and perf_counter() + last[-1] > deadline:
                return None
            gc.collect()
            self.attempted += 1
            if tracer is not None:
                tracer.run_id = f"{self.attempted}:{op.key}"  # one id per operation run
            start = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"raised {exc!r}"
            elapsed = perf_counter() - start
            total += elapsed
            last.append(elapsed)
            if result is not None:
                error = self.verify(op, result, record=(r == 0 and tracer is None))
            if error is not None:
                self.failed += 1
                self.errors.append(f"{op.key}: {error}")
        return total

    def verify(self, op, result, record: bool) -> str | None:
        digest = self.digest(result)
        if record:
            self.round_digests.setdefault(op.key, digest)
        seen = self.digests.get(op.key)
        if seen is None:
            self.digests[op.key] = digest
            return op.check(result)
        if seen != digest:
            return "output differs from an earlier run of the same input"
        return None


def reference_check(runner: Runner, workload: str, seed: int) -> str:
    """Compare round 0's outputs with the digests recorded for this seed."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    expect = recorded.get(str(seed))
    if expect is None:
        return f"no reference digest recorded for seed {seed}"
    got = round_digest(runner.round_digests)
    if got != expect:
        runner.errors.append(f"round 0 digest {got[:12]} differs from the recorded {expect[:12]}")
        return "reference digest MISMATCH"
    return "reference digest matched"


def round_digest(op_digests: dict[str, str]) -> str:
    lines = (f"{key} {digest}" for key, digest in op_digests.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, setup_s: float) -> dict:
    """round_s is the time of one round estimated from each operation
    kind's median, so operations of a round cut short by the deadline
    still count."""
    medians = {kind: statistics.median(runner.samples[kind]) for kind in runner.workload.kinds}
    per_round = Counter(op.kind for op in runner.workload.round_ops(0))
    return {
        "setup_s": metric(setup_s, "s"),
        "round_s": metric(sum(per_round[kind] * m for kind, m in medians.items()), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def detail_lines(runner: Runner, per_call: bool) -> list[str]:
    """Per-operation figures under the names NOTES.md maps them to."""
    lines = []
    for kind in runner.workload.kinds:
        values = runner.samples[kind]
        if per_call:
            lines.append(f"  {kind}_p50_ms {statistics.median(values) * 1000:.3f} ms (n={len(values)})")
            if len(values) >= 100:  # at least ten samples above the 90th percentile
                p90 = statistics.quantiles(values, n=10)[-1]
                lines.append(f"  {kind}_p90_ms {p90 * 1000:.3f} ms (n={len(values)})")
        else:
            lines.append(f"  {kind}_s {statistics.median(values):.4f} s (median of {len(values)})")
    return lines


def measure(runner: Runner, seconds: int) -> int:
    """Untraced rounds until the next operation would end after the time
    is up; returns the number of rounds begun."""
    deadline = perf_counter() + seconds
    runner.round(0)
    rounds = 1
    while runner.round(rounds, deadline=deadline) is not None:
        rounds += 1
    return rounds + 1


def measure_traced(runner: Runner, seconds: int, out_path: Path) -> dict:
    """Round 0 untraced, then round 0 again traced until the time is up.

    Repeating one round keeps the counts comparable: every traced round
    must report the same counts.  Times are medians over traced rounds.
    """
    import layers
    from spans import Tracer

    deadline = perf_counter() + seconds
    untraced = runner.round(0)
    rounds = []
    traced = 0.0
    with Tracer() as tracer:
        layers.install(tracer)
        # another traced round only if it should end by the deadline
        while not rounds or perf_counter() + traced < deadline:
            first, before = len(tracer.spans), Counter(tracer.counts)
            traced = runner.round(0, tracer)
            inclusive, self_time, calls = tracer.summary(first, len(tracer.spans))
            derived = layers.derive(inclusive, self_time, calls, tracer.counts - before)
            derived["trace.overhead_s"] = traced - untraced
            rounds.append(derived)
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path)
    for k, later in enumerate(rounds[1:], start=1):
        changed = [name for name in layers.COUNT_METRICS if later[name] != rounds[0][name]]
        if changed:
            runner.errors.append(f"traced round {k} changed counts {changed}")
    out = {}
    for name, unit in layers.METRICS:
        if name in layers.COUNT_METRICS:
            value = rounds[0][name]
        else:
            value = statistics.median(r[name] for r in rounds)
        out[name] = metric(value, unit)
    print(f"  {len(rounds)} traced round(s), {len(tracer.spans)} spans")
    return out


def run(args, import_s: float, work: Path) -> int:
    import workloads

    setup_times = []
    for k in range(SETUP_REPEATS):
        gc.collect()
        target = work / f"setup{k}"
        target.mkdir()
        start = perf_counter()
        try:
            workload = workloads.SETUPS[args.workload](args.seed, target)
        except Exception as exc:
            print(f"set-up failed: {exc!r}", file=sys.stderr)
            return 1
        setup_times.append(perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    runner = Runner(workload, workloads.digest)
    print(f"workload {args.workload}, seed {args.seed}, set-up {setup_s:.3f} s")
    if args.trace:
        out_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        metrics = measure_traced(runner, args.seconds, out_path)
        print(f"  spans written to {out_path.relative_to(ROOT)}")
    else:
        print(f"  {measure(runner, args.seconds)} round(s) begun")
        for line in detail_lines(runner, per_call=args.workload == "cut-loop"):
            print(line)
        metrics = end_to_end(runner, setup_s)
    print(f"  {reference_check(runner, args.workload, args.seed)}")
    print(f"  ops_failed {runner.failed / runner.attempted:.4f} ({runner.failed} of {runner.attempted})")
    for error in runner.errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({"correct": not runner.errors, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import anglecuts  # the program under test, from this checkout
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(anglecuts.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"the program was imported from {anglecuts.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = perf_counter() - start
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        return run(args, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
