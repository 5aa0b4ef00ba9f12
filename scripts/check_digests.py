#!/usr/bin/env python3
"""Check that the demo's, the mutants' and the tables workload's outputs match pinned digests.

Runs `clone-forge demo` from this checkout's `src/`: in json and in text at
default flags, then in json at `--seed 0` .. `--seed 9`.  Then runs
`perfbench/mutants.py --seed 0` and `--seed 3`, which only read the checkout.  Then runs the six commands
of the tables workload at `--seed 0` in a temporary directory, where it
writes `meet-algebra.json` as `perfbench/workloads.py` does, and checks
both the stdout of each and the two files `to-subst` writes.  Prints one
line per run or file, with each json demo run's check count and instance
total after its digest, and exits 1 if any digest differs.  Each run is a
fresh interpreter; all of them take about 25 s on two cores.

    python3 scripts/check_digests.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# sha256 of `clone-forge demo` stdout at default flags (no --seed)
PINNED = {
    ("--format", "json"): "ae445d6a75890a63f0d49e6143ff62b152e9846968482ac7d502c1731b540a55",
    ("--format", "text"): "a978fbd9be24582699ebeaa7cdca5a03928355cfa5977d3275a9767ca9a4cb76",
}

# sha256 of `clone-forge demo --format json --seed SEED` stdout
SEEDS = {
    "0": "41bc4181a9acf8a7d8f1749fa718cac62b5e042681ab6bf00d2779f3daa97a93",
    "1": "d96a09ba56a9ec8a757dc5fe538dc8943b2b0dcdc87ec2da182b7cbeda1b21f0",
    "2": "d160bc0f24371611ed10d538934bb66fc86f221cdd91dc347fe99b6a0ee11942",
    "3": "06cc5caf44784837ca019d5d5f24a18b88255fc75c7b6a754b2d176d3530a952",
    "4": "140e06db160ea35e894b7ed03a53ab7dad59ffd8edf558b0278fccb7a72e3c1e",
    "5": "f4176878ac0da47e8e1edfa815c68c9a51347bfb87169077b54e475519bad57a",
    "6": "8a390a65705a937cced8c4c1d30ede618f8b99016bc65e2edc70c31a243459d5",
    "7": "b8c5ced779c55e94d5328a28eba8076ba02198f624d42a0e9a8fdb6627e2dc38",
    "8": "58a4803548d4743e24831aa1c15d2a0af4df91a961a7a45f15f14b7a6d75c883",
    "9": "3cb14c24fbcc1d4256d4d7e456950d8db566af1b24cf9a79bc79b54b41e95a79",
}

# sha256 of `perfbench/mutants.py --seed SEED` stdout
MUTANTS = {
    "0": "df6e151752c26dc8d8ba7076f1e3d1be94468b22f8b7f6cf84350bfb9910708a",
    "3": "7b0dde78873e930166c1e4d7ea88f4395af55df9e39940f41250d7a06c7fc70b",
}

# The input `to-subst` reads for S(meet), as `perfbench/workloads.py` writes it.
MEET_ALGEBRA = {"carrier": 2, "operations": {"meet": {"arity": 2, "table": [0, 0, 0, 1]}}}

TABLE_SOURCES = {
    "initial": ("--builtin", "initial"),
    "meet": ("--algebra", "meet-algebra.json", "--max-arity", "4"),
}

# sha256 of `clone-forge COMMAND` stdout on each table source at --seed 0, run
# in this order in one directory
TABLES = {
    ("to-subst", "initial"): "ccb8ffc90c0bf73f4d5447687aab43ca48e21c145b5870e9c87e43687f8496ea",
    ("to-subst", "meet"): "fa4ea8ba553abf14f262a9adc783eff65a8a770934cdfbc418f2a9af63fa63bf",
    ("check-subst", "initial"): "80c0f9cbd767261720d2f1b613571ea885072d2d0140e191d66135f615cb248a",
    ("check-subst", "meet"): "632a6894f7fe568423e59b460fe9cca5a5f9a704e14ebf95c5c149c83ee485af",
    ("to-clone", "initial"): "a8caac5c319786dd8ae50dbd04e632b05da6460a741ccfcb25f362deae2f97fd",
    ("to-clone", "meet"): "2eb6638deeea84c504b88c6700f9ca618b1c1f579ced851230ada10fd5fa06a4",
}

# sha256 of the files `to-subst` writes
TABLE_FILES = {
    "initial.json": "414c7f1f5425da7e8966bd90a1a8c233ab5257178cf7a4cc4c0ea923e170aac6",
    "meet.json": "fe8b661ae27d587f50892f0f607a3c10fa4f11b7c12106a1a2436b9ad634af10",
}


def table_args(command: str, name: str) -> list[str]:
    """Interpreter arguments of one tables command, as the workload runs it."""
    if command == "to-subst":
        args = [*TABLE_SOURCES[name], "--bound", "4", "--output", f"{name}.json"]
    elif command == "check-subst":
        args = ["--input", f"{name}.json", "--bound", "4"]
    else:
        args = ["--input", f"{name}.json"]
    return ["-m", "clone_forge.cli", command, *args, "--format", "json", "--seed", "0"]


def runs() -> list[tuple[str, list[str], str]]:
    """(label, interpreter arguments, pinned digest) of every run."""
    seeded = [(("--format", "json", "--seed", seed), digest) for seed, digest in SEEDS.items()]
    demo = [
        (f"demo {' '.join(flags)}", ["-m", "clone_forge.cli", "demo", *flags], digest)
        for flags, digest in [*PINNED.items(), *seeded]
    ]
    mutants = [
        (f"mutants --seed {seed}", [str(ROOT / "perfbench" / "mutants.py"), "--seed", seed], digest)
        for seed, digest in MUTANTS.items()
    ]
    tables = [
        (f"{command} {name}", table_args(command, name), digest)
        for (command, name), digest in TABLES.items()
    ]
    return demo + mutants + tables


def demo_counts(data: bytes) -> str:
    """The check count and instance total of a `demo --format json` stdout."""
    try:
        checks = json.loads(data)["checks"]
    except (ValueError, KeyError):
        return " (unreadable)"
    return f" ({len(checks)} checks, {sum(c['instances'] for c in checks):,} instances)"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    mismatches = 0

    def compare(label: str, data: bytes, want: str, counts: str = "") -> None:
        nonlocal mismatches
        got = hashlib.sha256(data).hexdigest()
        mismatches += got != want
        verdict = "ok" if got == want else f"MISMATCH (want {want[:12]})"
        print(f"{label}: {got[:12]}{counts} {verdict}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "meet-algebra.json").write_text(json.dumps(MEET_ALGEBRA) + "\n")
        for label, args, want in runs():
            out = subprocess.run(
                [sys.executable, *args], cwd=workdir,
                env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
            ).stdout
            json_demo = label.startswith("demo --format json")
            compare(label, out, want, demo_counts(out) if json_demo else "")
        for name, want in TABLE_FILES.items():
            path = workdir / name
            compare(f"file {name}", path.read_bytes() if path.exists() else b"", want)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
