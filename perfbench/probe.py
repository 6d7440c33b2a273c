"""One fresh-process set-up of a batch workload; timed by its parent.

Usage: ``python3 perfbench/probe.py <ogss_sweep|dispatch_large_fleet> <seed>``
"""

from __future__ import annotations

import sys

from common import use_source_tree


def main(workload: str, seed: int) -> None:
    use_source_tree()
    if workload == "ogss_sweep":
        import wl_ogss

        wl_ogss.build_tasks(seed)
    elif workload == "dispatch_large_fleet":
        import wl_dispatch

        wl_dispatch.build_bundle(seed)
    else:
        raise SystemExit(f"no set-up probe for workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
