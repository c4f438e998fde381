"""Record the output hashes of round 0 that later runs compare against.

    python3 perfbench/record_digests.py [--workload NAME] SEED [SEED ...]

Runs round 0 of every workload (or only of NAME) for each seed, certifies
every output as a benchmark run does, and stores each output's hash in
``digests.json`` under the workload and the seed (entries for other seeds
are kept).  Run it at the commit whose outputs count as the reference; a
later run reports how many of its outputs differ as
``check.outputs_changed``.
"""

from __future__ import annotations

import json
import shutil
import sys

import program


def main(argv: list[str]) -> int:
    only = None
    if argv[:1] == ["--workload"] and len(argv) > 1:
        only, argv = argv[1], argv[2:]
    if not argv or not all(a.isdigit() for a in argv):
        print("usage: python3 perfbench/record_digests.py [--workload NAME] SEED [SEED ...]",
              file=sys.stderr)
        return 2
    program.ensure_importable()
    import run
    from workloads import WORKLOADS, build_round

    if only is not None and only not in WORKLOADS:
        print(f"unknown workload {only!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    digests = json.loads(run.DIGESTS_PATH.read_text()) if run.DIGESTS_PATH.is_file() else {}
    workdir = run.WORK_DIR / "record-inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in (only,) if only else WORKLOADS:
            for seed in map(int, argv):
                client = run.Client(workload, seed)
                for req in build_round(workload, seed, 0, workdir):
                    client.run(req)
                digests.setdefault(workload, {})[str(seed)] = client.digests
                print(f"{workload} seed {seed}: {len(client.digests)} outputs, "
                      f"{len(client.failures)} failed", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
