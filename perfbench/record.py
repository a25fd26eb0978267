"""Record the reference digests of every operation in every workload's
population into ``reference.json``.

Run it from the repository root, at the commit whose outputs are the
reference (it takes a few minutes):

    python3 perfbench/record.py [workload ...]

Workloads not named keep their recorded entries.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(wl) -> dict:
    sw = workloads.load_swlab()
    population = wl.population(sw)
    entries = []
    for index in range(len(population)):
        got = [workloads.digest(canon(call())) for call, canon in wl.ops(sw, population, (index, 0))]
        segments = []
        for n in wl.segments:
            part, got = got[:n], got[n:]
            segments.append(part[0] if n == 1 else workloads.fold_digests(part))
        entries.append(segments)
    return {"fingerprint": workloads.digest(wl.keys(population)), "digests": entries}


def main(names) -> int:
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for name in names or sorted(workloads.WORKLOADS):
        reference[name] = record(workloads.WORKLOADS[name])
        print(f"{name}: {len(reference[name]['digests'])} items", flush=True)
        run.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
