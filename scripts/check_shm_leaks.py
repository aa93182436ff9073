"""Shared-memory hygiene check: no stale ``repro-plans-*`` segments.

Runs a multi-process ``simulate_batch`` -- forcing two pool workers
even on single-core hosts, since the check is about segment lifecycle,
not speed -- and then asserts that the batch took the row-shard route
and that no ``/dev/shm/repro-plans-*`` entries survive.
``SharedArrayStore.dispose`` must close and unlink the batch segment on
every exit path; a leak here means a run left the batch's slot columns
pinned in shared memory.

Exits 0 when clean, 1 when stale segments (or result anomalies) are
found.  Hosts without ``/dev/shm`` still exercise the inline-handle
fallback path.
"""

from __future__ import annotations

import glob
import sys

from repro.runtime import parallel as parallel_mod
from repro.scenario import get_scenario
from repro.sim import vectorized

SHM_GLOB = "/dev/shm/repro-plans-*"


def main() -> int:
    before = set(glob.glob(SHM_GLOB))

    # Force real process dispatch regardless of host size: both the
    # dispatch decision in simulate_batch and ParallelMap's own pool
    # sizing normally cap at the usable core count.  Lift only the cap:
    # workers=1 (the serial reference, and the shard batches the pool
    # workers run) stays in-process.
    parallel_mod.resolve_workers = lambda workers: workers
    vectorized.resolve_workers = lambda workers: workers
    shard_routes = []
    original = vectorized._simulate_batch_parallel

    def counting(*args, **kwargs):
        shard_routes.append(kwargs["workers"])
        return original(*args, **kwargs)

    vectorized._simulate_batch_parallel = counting

    sc = get_scenario("exp1-conv-dpm")
    seeds = list(range(8))
    serial = vectorized.simulate_batch(sc, seeds, ["conv-dpm", "fc-dpm"])
    parallel = vectorized.simulate_batch(
        sc, seeds, ["conv-dpm", "fc-dpm"], workers=2
    )
    if shard_routes != [2]:
        print(f"FAIL: expected one 2-worker shard batch, got {shard_routes}")
        return 1
    if parallel != serial:
        print("FAIL: parallel batch results differ from serial")
        return 1

    leaked = set(glob.glob(SHM_GLOB)) - before
    if leaked:
        print(f"FAIL: stale shared-memory segments: {sorted(leaked)}")
        return 1
    print("OK: parallel == serial and no stale repro-plans-* segments")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
