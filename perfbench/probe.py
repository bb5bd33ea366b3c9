"""Set-up probe: the work every CLI job does before its command starts.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/probe.py N M DOMAIN SDS

Imports condlab, parses the domain and scheme specifications, enumerates the
domain once and prints its size. The benchmark times this process from spawn
to exit as ``setup_s``.
"""

import sys

from condlab.domains import parse_domain
from condlab.sds import parse_sds


def main(argv) -> int:
    n, m, domain_spec, sds_spec = int(argv[0]), int(argv[1]), argv[2], argv[3]
    domain = parse_domain(domain_spec, n, m)
    parse_sds(sds_spec, n, m)
    print(len(domain.members()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
