"""Record each workload's round-0 output digest for a range of seeds.

    python3 bench/record_digests.py FIRST LAST

Runs round 0 of every workload for seeds FIRST..LAST inclusive, with
every output checked, and writes bench/digests.json.  run.py compares
the round-0 outputs of later runs against these digests, so record them
only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    recorded: dict[str, dict[str, str]] = {}
    work_root = run.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    for name in run.WORKLOADS:
        recorded[name] = {}
        for seed in range(first, last + 1):
            work = tempfile.mkdtemp(prefix=f"record-{name}-{seed}-", dir=work_root)
            try:
                runner = run.Runner(workloads.SETUPS[name](seed, Path(work)), workloads.digest)
                runner.round(0)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if runner.errors:
                print(f"{name} seed {seed}: {runner.errors[:3]}", file=sys.stderr)
                return 1
            recorded[name][str(seed)] = run.round_digest(runner.round_digests)
            print(f"{name} seed {seed}: {recorded[name][str(seed)][:16]}", flush=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
