#!/usr/bin/env python3
"""Check that the demo's and the mutants workload's stdout match pinned digests.

Runs `clone-forge demo` from this checkout's `src/`: in json and in text at
default flags, then in json at `--seed 0` .. `--seed 9` against
`perfbench/seed_digests.json`.  Then runs `perfbench/mutants.py --seed 0`
and `--seed 3`, which only read the checkout.  Prints one line per run and
exits 1 if any digest differs.  Each run is a fresh interpreter; all of
them take about a minute on two cores.

    python3 scripts/check_digests.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# sha256 of `clone-forge demo` stdout at default flags (no --seed)
PINNED = {
    ("--format", "json"): "bc6378f163c446d01f8be6a7e6a57e2a0cc1148460d2c1c210824c54fbf16d72",
    ("--format", "text"): "e5364680b8b8f78513c183ac82810905ca6faf6a403ab8fb9b6cd57866c24156",
}

# sha256 of `perfbench/mutants.py --seed SEED` stdout
MUTANTS = {
    "0": "df6e151752c26dc8d8ba7076f1e3d1be94468b22f8b7f6cf84350bfb9910708a",
    "3": "7b0dde78873e930166c1e4d7ea88f4395af55df9e39940f41250d7a06c7fc70b",
}


def runs() -> list[tuple[str, list[str], str]]:
    """(label, interpreter arguments, pinned digest) of every run."""
    seeds = json.loads((ROOT / "perfbench" / "seed_digests.json").read_text())["demo"]
    seeded = [(("--format", "json", "--seed", seed), digest) for seed, digest in seeds.items()]
    demo = [
        (f"demo {' '.join(flags)}", ["-m", "clone_forge.cli", "demo", *flags], digest)
        for flags, digest in [*PINNED.items(), *seeded]
    ]
    mutants = [
        (f"mutants --seed {seed}", [str(ROOT / "perfbench" / "mutants.py"), "--seed", seed], digest)
        for seed, digest in MUTANTS.items()
    ]
    return demo + mutants


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    mismatches = 0
    for label, args, want in runs():
        out = subprocess.run(
            [sys.executable, *args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
        ).stdout
        got = hashlib.sha256(out).hexdigest()
        mismatches += got != want
        verdict = "ok" if got == want else f"MISMATCH (want {want[:12]})"
        print(f"{label}: {got[:12]} {verdict}", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
