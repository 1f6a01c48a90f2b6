"""The planners' bandwidth on every pattern the report schemes tolerate.

One line per recoverable pattern of 1 to tolerance down slots of each
``cli.REPORT_SCHEMES`` scheme: the scheme, the slots, the repair plan's
``bandwidth_blocks``, then ``block:bandwidth`` for the degraded read of
each block lost on every host.  ``bandwidth_table.txt`` holds the table as
the planners stood at commit fa4507d, before they became one; it was made
by running this file, as its first line says, on a copy of that commit.
"""

import itertools

from polycode import codes, schemes
from polycode.cli import REPORT_SCHEMES

COMMAND = "PYTHONPATH=src python3 tests/bandwidth_table.py > tests/bandwidth_table.txt"


def bandwidth_lines():
    for name in REPORT_SCHEMES:
        scheme = schemes.parse_scheme(name)
        placements = schemes._geometry(scheme).placements
        for size in range(1, schemes.tolerance(scheme) + 1):
            for down in itertools.combinations(range(scheme.code_length), size):
                reads = " ".join(
                    f"{b}:{codes.plan_degraded_read(scheme, b, down).bandwidth_blocks}"
                    for b, slots in placements.items() if set(slots) <= set(down)
                )
                repair = codes.plan_repair(scheme, down).bandwidth_blocks
                yield f"{name} {','.join(map(str, down))} {repair} {reads}".rstrip()


if __name__ == "__main__":
    print(f"# made at commit fa4507d by: {COMMAND}")
    print("# scheme, down slots, repair bandwidth_blocks, then block:bandwidth_blocks"
          " of each degraded read")
    for line in bandwidth_lines():
        print(line)
