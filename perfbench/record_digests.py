"""Record the expected output digests the benchmark checks against.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``: the SHA-256 of the three rendered
``verify_paper()`` reports and of the stdout of every ``cli`` op.  Run it
only when an output change is deliberate, and say so with the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl


def main() -> int:
    report, rendered = wl.run_paper()
    if not report.passed:
        print("verify_paper() fails; not recording", file=sys.stderr)
        return 1
    digests = {f"paper:{fmt}": wl.digest(text.encode()) for fmt, text in rendered.items()}
    with tempfile.TemporaryDirectory(dir=wl.ROOT) as tmp:
        env = wl.cli_env(Path(tmp) / "cache")
        for argv in sorted(wl.cli_argvs(0)):
            code, stdout, _ = wl.run_cli_subprocess(argv, env)
            if code != 0:
                print(f"{' '.join(argv)} exited {code}; not recording", file=sys.stderr)
                return 1
            digests[wl.cli_key(argv)] = wl.digest(stdout)
    wl.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {wl.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
