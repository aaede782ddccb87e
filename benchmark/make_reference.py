"""Regenerate benchmark/reference.json from the package in this checkout.

    python3 benchmark/make_reference.py

For every workload and input variant it records the sha256 of each text
the oracle searches and, for every (text, pattern, mode) the operations
search, a digest of the ``bytes.find`` oracle's positions and each
matcher's (comparisons, alignments, anchor hits) as traced from one run
of every operation. The benchmark counts an operation as failed when its
counts differ from these, so regenerate only when a change to the counts
is intended, and say so in the change.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys

from run import BENCH_DIR, ROOT, import_package


def variant_reference(harness, workload) -> dict:
    entries = {}
    for op in workload.ops:
        for key in op.keys:
            entries[key] = {"digest": harness.positions_digest(harness.key_oracle(workload.texts, key))}
    tracer = harness.Tracer()
    with tracer:
        for op in workload.ops:
            tracer.begin_op()
            op.call()
            for algo, query, outcome in tracer.calls:
                counts = harness.outcome_counts(outcome)
                entry = entries[harness.entry_key(op.text_key, query.mode, query.pattern)]
                if entry.setdefault(algo, counts) != counts:
                    raise RuntimeError(f"{op.label}: {algo} counts are not repeatable")
    return {
        "texts": {key: hashlib.sha256(text).hexdigest()
                  for key, text in workload.texts.items()},
        "entries": entries,
    }


def main() -> int:
    import_package()
    import harness
    import workloads

    workdir = ROOT / ".bench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name in workloads.NAMES:
            reference[name] = []
            for variant in range(workloads.VARIANTS[name]):
                wl = workloads.build(name, variant, workdir, ROOT / "data")
                reference[name].append(variant_reference(harness, wl))
                print(f"{name} variant {variant}: {len(wl.ops)} operations", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
