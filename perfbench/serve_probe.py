"""``repro serve`` with a :class:`~perfbench.probes.LayerProbe` installed.

The traced ``serve`` run starts the server through this launcher so the
layer counters are taken inside the process doing the work::

    python perfbench/serve_probe.py COUNTERS.json [repro serve options]

When the server stops (SIGINT), the probe's totals are written to
``COUNTERS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.probes import LayerProbe  # noqa: E402
from repro import cli  # noqa: E402


def main(argv: list) -> int:
    out, serve_args = argv[0], argv[1:]
    probe = LayerProbe().install()
    try:
        return cli.main(["serve", *serve_args])
    finally:
        Path(out).write_text(json.dumps(probe.totals()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
