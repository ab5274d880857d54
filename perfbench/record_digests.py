"""Record the output digests that runs on the default seed are checked against.

Run from the repository root, on code whose outputs are known to be right:

    python3 perfbench/record_digests.py

For every workload it evaluates the seeded batch once (exact, analytic
float and rational-analytic images of T_n, or the ledger's audit text)
and writes their sha256 digests, with the platform the float outputs
were made on, to perfbench/digests.json.
"""

from __future__ import annotations

import json

from run import DIGESTS, import_program, platform_key, run_evals

DEFAULT_SEED = 1


def main() -> None:
    import_program()
    from workloads import WORKLOADS, digest

    recorded = {"seed": DEFAULT_SEED, "platform": platform_key()}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        state = workload.build()
        evals = run_evals(workload.evals(state))
        recorded[name] = {model: digest(value) for model, (_, _, value) in evals.items()}
        print(name, recorded[name])
    DIGESTS.write_text(json.dumps(recorded, indent=2) + "\n")


if __name__ == "__main__":
    main()
