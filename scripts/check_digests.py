#!/usr/bin/env python3
"""Check that the demo's, the mutants' and the tables workload's outputs match pinned digests.

Runs `clone-forge demo` from this checkout's `src/`: in json and in text at
default flags, then in json at `--seed 0` .. `--seed 9`.  Then runs
`perfbench/mutants.py --seed 0` and `--seed 3`, which only read the checkout.  Then runs the six commands
of the tables workload at `--seed 0` in a temporary directory, where it
writes `meet-algebra.json` as `perfbench/workloads.py` does, and checks
both the stdout of each and the two files `to-subst` writes.  Prints one
line per run or file and exits 1 if any digest differs.  Each run is a
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
    ("--format", "json"): "be975cd303d232deb38925da3c6a5b9b7b537300e2a1a7e6fca995aad435da7f",
    ("--format", "text"): "8d558ac8956d31862d499b68ca601153df79ff5d2989b0735f54c8a9f89e66dd",
}

# sha256 of `clone-forge demo --format json --seed SEED` stdout
SEEDS = {
    "0": "10a1c40f8e626ded0f1743041c5c89a68950fc3d3c8aedf8a79ce70b701a49ff",
    "1": "6c042a0c47b635cdbad7e4fd6e5a2beefc4ce53438d23fcc613041d68ea893a9",
    "2": "baa8ea4544f0b5b209dc7753cb4801e428811ea7d1024666cff4967e7ba5be12",
    "3": "633537593e1d5d77d8505e204c65f4914d668a186adfc2a777ce997cba7d6c73",
    "4": "eac71a8cc2d66432837c8f3b48f6f0b47bcc531565cd686252b63b63507567bf",
    "5": "f34dae655a5d860fae6b42692045fa6f7bb477b0d7fbe81831c31c72dca96780",
    "6": "93d94b22af5e1d48390689aa804e3133aac65ad9ab83a62d589527cbe2d7bec5",
    "7": "22e9eba0012b0b94f44a817dfb7a3f73a1c3d72dbbc9839a31b7e100b2db7035",
    "8": "f9f549d265cd0677ad6a4f8b4fd35b30ee9af11591d602c0d7c1092a9f40f0a3",
    "9": "a96e0ddb98c6122e4438be69384644f58e006c55a6ac74a04ad2799bfcc4ccdc",
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


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    mismatches = 0

    def compare(label: str, data: bytes, want: str) -> None:
        nonlocal mismatches
        got = hashlib.sha256(data).hexdigest()
        mismatches += got != want
        verdict = "ok" if got == want else f"MISMATCH (want {want[:12]})"
        print(f"{label}: {got[:12]} {verdict}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "meet-algebra.json").write_text(json.dumps(MEET_ALGEBRA) + "\n")
        for label, args, want in runs():
            out = subprocess.run(
                [sys.executable, *args], cwd=workdir,
                env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
            ).stdout
            compare(label, out, want)
        for name, want in TABLE_FILES.items():
            path = workdir / name
            compare(f"file {name}", path.read_bytes() if path.exists() else b"", want)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
