"""Run the program's CLI with every layer traced.

    python perfbench/traced_cli.py OUT.json <gpu-compat arguments...>

Installs the span recorder of :mod:`layers`, runs ``repro.cli.main`` on
the remaining arguments in this process, and writes the recorder to
``OUT.json`` when the command returns (for ``serve``: when it is
interrupted).  The exit code is the command's.
"""

from __future__ import annotations

import sys
from pathlib import Path

import layers


def main() -> int:
    out = Path(sys.argv[1])
    rec = layers.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        layers.dump(rec, out)


if __name__ == "__main__":
    sys.exit(main())
