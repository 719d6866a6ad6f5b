"""Set-up child process: import devmatch, then write the cli-random files.

Usage: python3 setup_child.py SRC_DIR [WORKDIR SPECS_JSON]

Runs in its own process so that the generator's memory peak (it is
quadratic in n) stays out of the benchmark process's peak RSS, and so that
each set-up repetition pays the import again.
"""

import json
import sys
from pathlib import Path

MAX_AGENTS = 2000


def main(argv):
    sys.path.insert(0, argv[1])
    from devmatch import fileio
    from devmatch.generators import GenModel, GenSpec, generate

    if len(argv) == 2:
        return 0
    workdir = Path(argv[2])
    for spec in json.loads(argv[3]):
        if spec["n"] > MAX_AGENTS:
            print(f"refusing to generate n={spec['n']} > {MAX_AGENTS}", file=sys.stderr)
            return 2
        drawn = generate(
            GenSpec(
                n=spec["n"],
                model=GenModel(spec["model"]),
                list_cap=spec["list_cap"],
                deviator_fraction=0.0,
                seed=spec["seed"],
            )
        )
        text = fileio.serialize_instance(drawn.instance, frozenset(spec["deviators"]))
        (workdir / spec["file"]).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
