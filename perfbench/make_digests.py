"""Write the expected outputs the benchmark checks against (``digests.json``).

For each seed: the exact single-tree Ex-DPC fit of the cluster and shard
workloads' data and the cold-fit labels of every explore tour stop; once:
the offline ``predict`` labels of the served model for every held-out query.
Run from the root of a checkout::

    python3 perfbench/make_digests.py --seeds 0-39

Entries already present are kept; a run adds the missing ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from verify import DIGESTS_PATH, DigestStore, pack_labels  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-39", help="inclusive range, e.g. 0-39")
    args = parser.parse_args(argv)
    data = DigestStore().data

    def save():
        with open(DIGESTS_PATH, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")

    serve = data.setdefault("serve-syn2d", {})
    if "labels" not in serve:
        train, queries = workloads.serve_data()
        model = workloads.approx()
        model.fit(train)
        serve["labels"] = pack_labels(model.predict(queries))
        save()
    for seed in seed_range(args.seeds):
        key = str(seed)
        cluster = data.setdefault("cluster-syn2d", {})
        if key not in cluster:
            points = workloads.syn_points(workloads.CLUSTER_N, seed)
            cluster[key] = workloads.cluster_reference(points)
        shard = data.setdefault("shard-household4d", {})
        if key not in shard:
            points = workloads.household_points(workloads.SHARD_N, seed)
            shard[key] = workloads.shard_reference(points)
        explore = data.setdefault("explore-syn2d", {})
        if key not in explore:
            points = workloads.syn_points(workloads.EXPLORE_N, seed)
            explore[key] = [
                workloads.cold_stop_digest(points, stop) for stop in workloads.tour(seed)
            ]
        save()
        print(f"seed {seed} done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
