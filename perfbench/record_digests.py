"""Record the payload digests of the CLI commands on fixed inputs.

Usage (from the repository root):
    python3 perfbench/record_digests.py

It runs each fixed-input command of the cli workload once and writes the
SHA-256 of its payload (sorted keys, timing_ms left out) to digests.json.
Run it only when a change to the CLI output is intended, and say why in
that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import inputs
import worker


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as workdir:
        for op in inputs.fixed_cli_ops(workdir, {}):
            code, out = worker._cli_subprocess(op.argv, workdir)
            env = json.loads(out)
            if code != 0 or env["status"] != "ok":
                print(f"{op.name}: status {env['status']}, exit {code}", file=sys.stderr)
                return 1
            digests[op.name] = checks.payload_digest(env["payload"])
    path = Path(__file__).with_name("digests.json")
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
