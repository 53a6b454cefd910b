"""Regenerate references.json: the outputs of every workload at the default seeds.

    python3 bench/make_references.py

Run it only when a change is meant to alter the iterates; a speed-up must
leave the stored cost histories and condition constants as they are.
"""
from __future__ import annotations

import json
import sys

import environment

# seeds whose outputs references.json holds
DEFAULT_SEEDS = range(16)


def main():
    environment.prepare()
    import workloads

    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        refs[name] = {}
        for seed in sorted({workload.reference_seed(s) for s in DEFAULT_SEEDS}):
            result = workload.run(seed).result
            errors = workload.check(result, None)
            if errors:
                sys.exit(f"{name} seed {seed}: {'; '.join(errors)}")
            refs[name][str(seed)] = workload.reference_of(result)
            print(name, seed, file=sys.stderr)
    with open(workloads.REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
