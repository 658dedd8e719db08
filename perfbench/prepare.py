"""Build the warm store the ``warm-rerun`` and ``service-reports``
workloads read: the ``cold-des`` campaign run into an empty store,
checked against its committed digest, then compacted.

    python3 perfbench/prepare.py --seed N --out DIR
        # DIR/store (compacted) and DIR/cold.jsonl
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402 - after the path set-up
from perfbench.workloads import (  # noqa: E402
    campaign_seed,
    des_spec,
    load_reference,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    from repro.sim.executor import execute_spec
    from repro.store import CampaignStore

    args.out.mkdir(parents=True, exist_ok=True)
    results = args.out / "cold.jsonl"
    store = CampaignStore(args.out / "store")
    execute_spec(des_spec(args.seed), results_path=results, store=store)
    problem = checks.check_digest(
        results.read_bytes(),
        load_reference()["cold_des_sha256"][str(campaign_seed(args.seed))])
    if problem is not None:
        print(f"prepare: {problem}", file=sys.stderr)
        return 1
    store.compact()
    return 0


if __name__ == "__main__":
    sys.exit(main())
