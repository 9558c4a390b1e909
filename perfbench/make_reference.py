"""Record the results the benchmark checks against, from the current source tree.

Run from the repository root: ``PYTHONPATH=src python3 perfbench/make_reference.py``.
Writes ``perfbench/reference/verify-paper.json`` (the exact bytes of
``verify-paper --jobs 1`` without timing) and ``perfbench/reference/search.json``
(every search cell's report with witnesses, and the endpoint census for each
size).  The recorded files come from the commit the benchmark was defined on;
regenerate them only in a change that means to alter these results.
"""

import json
import sys
from pathlib import Path

from outerpath import cli, search

from workloads import CENSUS_SIZES, REFERENCE, SEARCH_CELLS


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    status = cli.main(["verify-paper", "--jobs", "1", "--json", str(REFERENCE / "verify-paper.json")])
    if status != 1:
        print(f"verify-paper exited {status}; expected 1 (C8 fails by design)", file=sys.stderr)
        return 1
    cells = {f"{n},{k}": search.extremal_value(n, k).to_json_dict() for n, k in SEARCH_CELLS}
    census = {str(n): search.endpoint_pair_maxima(n).tolist() for n in CENSUS_SIZES}
    text = json.dumps({"cells": cells, "census": census}, separators=(",", ":"))
    (REFERENCE / "search.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
