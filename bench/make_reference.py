"""Write the stored reference outputs the benchmark checks against.

    python3 bench/make_reference.py                       # every workload
    python3 bench/make_reference.py --workload nnt_tracking --pool 2 \\
        --override n_patients=800 --out /tmp/ref.json

Each workload's reference holds one entry per input (scenario, seed) with
the outputs the benchmark compares: final threshold, truth, the five
methods' estimates and errors, and for ``logged_replay`` the SHA-256 of
every file the CLI wrote. A ``replication_batch`` entry also holds the
record of its one-replication warm-up. Regenerate only when a change of
outputs is intended, and state the change; a run compares against these
files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from run import (
    BENCH_DIR,
    MAX_WORKERS,
    WORKDIR,
    cpu_count,
    pin_environment,
    plain_call,
    use_checkout_source,
)


def build(workload: str, pool: int, overrides: list) -> dict:
    import workloads

    spec = workloads.WORKLOADS[workload]
    entries = workloads.pool_entries(spec, pool)
    workdir = WORKDIR / f"reference-{os.getpid()}"
    try:
        inputs = workloads.Inputs(spec, entries, overrides, workdir, min(MAX_WORKERS, cpu_count()))
        for idx, entry in enumerate(entries):
            for warmup in (False, True):
                key = workloads.record_key(spec, warmup)
                if key not in entry:
                    _, entry[key] = inputs.run(idx, plain_call, warmup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "overrides": overrides, "entries": entries}


def _dump(reference: dict) -> str:
    """JSON with one line per entry, so a diff shows which inputs changed."""
    head = {k: v for k, v in reference.items() if k != "entries"}
    lines = [json.dumps(e, sort_keys=True) for e in reference["entries"]]
    body = json.dumps(head, sort_keys=True)[:-1]
    return body + ', "entries": [\n' + ",\n".join(lines) + "\n]}\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--pool", type=int, default=None, help="entries (default: the workload's)")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                   help="config override applied to every scenario (repeatable)")
    p.add_argument("--out", default=None, help="output file (one workload only)")
    args = p.parse_args(argv)
    pin_environment()
    use_checkout_source()
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    if args.out and len(names) != 1:
        p.error("--out needs exactly one --workload")
    for name in names:
        pool = args.pool or workloads.WORKLOADS[name].pool
        reference = build(name, pool, args.override)
        out = Path(args.out) if args.out else BENCH_DIR / "reference" / f"{name}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(_dump(reference), encoding="utf-8")
        print(f"{name}: {pool} entries -> {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
