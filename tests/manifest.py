"""Byte manifest of the CLI: one sha256 per fixed command line.

Each command runs as `python -m nonlocal_ssh ...` in a fresh temporary
directory, against the package that PYTHONPATH finds. Its hash covers the
exit code, stdout, stderr without the `[nonlocal-ssh] ... finished in`
timing line, and the name and bytes of every file the run wrote. Each
output line is the hash and the command, so two manifests diff by command:

    PYTHONPATH=/path/to/old/src python tests/manifest.py > old.txt
    PYTHONPATH=src python tests/manifest.py > new.txt
    diff old.txt new.txt

An empty diff means every listed run kept its bytes.
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

TIMING = re.compile(rb"^\[nonlocal-ssh\] \S+ finished in [0-9.]+ s\n?", re.MULTILINE)

ACCEPTANCE = "--a 0.2 --L 10 --dx 0.01"  # the 2002-level acceptance box
SMALL = "--a 0.2 --L 2 --dx 0.05"  # 82 levels

README = [
    "bands --v 0.5 --w 1 --a 1 --samples 201",
    "zak --v 0.5 --w 1 --a 1 --nk 2048",
    f"finite --v0 0.5 --w0 1 {ACCEPTANCE} --out levels.csv",
    f"compare-ssh --v0 0.5 --w0 1 {ACCEPTANCE}",
    f"edge --v0 0.5 --w0 1 {ACCEPTANCE} --n-a 3 --m-a 1 --n-b 5 --m-b 2 --out modes.csv",
]


def _box(couplings, geometry):
    # finite with and without --vectors, and compare-ssh, on one box
    return [f"finite {couplings} {geometry}",
            f"finite {couplings} {geometry} --tol-zero 0.01 --vectors --out levels.csv",
            f"compare-ssh {couplings} {geometry}"]


BOXES = [
    *_box("--v0 0.5 --w0 1", ACCEPTANCE),
    # m = 7 and m = 8: the midgap count flips between them
    *(line for a in ("0.35", "0.4") for v0 in ("0.5", "-0.5") for w0 in ("1", "-1")
      for line in _box(f"--v0 {v0} --w0 {w0}", f"--a {a} --L 10 --dx 0.05")),
    # vanishing, equal and extreme couplings
    *(line for couplings in ("--v0 0 --w0 1", "--v0 1 --w0 0", "--v0 1 --w0 1", "--v0 -1 --w0 1",
                             "--v0 2 --w0 1", "--v0 1e307 --w0 1e308", "--v0 1e-310 --w0 3e-310",
                             "--v0 1e300 --w0 -3e300", "--v0 1e-320 --w0 3e-320")
      for line in _box(couplings, SMALL)),
    "finite --v0 0.5 --w0 1 --a 0.01 --L 400 --dx 0.01 --out chain.csv",  # one 40001-cell chain
    "compare-ssh --v0 0.5 --w0 1 --a 0.01 --L 400 --dx 0.01",  # its dense block is refused
    "finite --v0 0.5 --w0 1 --a 0.2 --L 100 --dx 0.01 --out levels.csv",  # 20002 levels
    # two 2-cell chains on the edge-pair threshold 2(|w0| - |v0|) = |v0|: kappa = 0
    "finite --v0 1 --w0 1.5 --a 2 --L 3 --dx 1",
    "compare-ssh --v0 1 --w0 1.5 --a 2 --L 3 --dx 1",
]

EDGE = [
    "edge --v0 0.5 --w0 1 --a 1 --L 20 --dx 0.1 --n-a 1 --n-b 1",
    "edge --v0 0.5 --w0 1 --a 1e300 --L 2e301 --dx 1e299 --n-a 1 --n-b 1",
    "edge --v0 0.5 --w0 1 --a 1e-300 --L 2e-299 --dx 1e-301 --n-a 1 --n-b 1",
    f"edge --v0 0.5 --w0 -1 {ACCEPTANCE} --n-a 3 --m-a 1 --n-b 5 --m-b 2",
    f"edge --v0 -0.5 --w0 1 {ACCEPTANCE} --n-a 3 --m-a 1 --n-b 5 --m-b 2 --out modes.csv",
    # 49 hops: an odd count, where a wall shift in the complex exponent turns Re psi into Im psi
    "edge --v0 0.5 --w0 1 --a 0.2 --L 9.8 --dx 0.01 --n-a 3 --m-a 1 --n-b 5 --m-b 2",
    # |w0/v0| = 1 + 1.4e-10, where the log of the rounded ratio lost 6 digits of Re q
    "edge --v0 0.7 --w0 0.7000000001 --a 1 --L 20 --dx 0.1 --n-a 1 --n-b 1",
]

BULK = [
    "approx --v 0.5 --w 1 --a 1 --samples 101",
    "approx --v 0.5 --w 1 --a 1 --order 2 --kmin -1 --kmax 1 --samples 101 --out approx.csv",
    "berry --v 0.5 --w 1 --a 1 --order 1",
    "berry --v 0.5 --w 1 --a 1 --order 2 --out berry.json",
]

# the lines of CI's "Extreme inputs" step
EXTREME = [
    "bands --v 1e307 --w 1e308 --a 1 --samples 5",
    "bands --v 1e308 --w 1e308 --a 1 --samples 5",
    "approx --v 1e307 --w 1e308 --a 1 --samples 5",
    "approx --v 1e308 --w 1e308 --a 1 --samples 5",
    "berry --order 1 --v 1e308 --w 1e308 --a 1",
    f"finite --v0 1e307 --w0 1e308 {SMALL}",
    f"finite --v0 1e308 --w0 1e308 {SMALL}",
    f"compare-ssh --v0 1e307 --w0 1e308 {SMALL}",
    f"compare-ssh --v0 1e308 --w0 1e308 {SMALL}",
    "bands --v 1e-320 --w 3e-320 --a 1 --samples 5",
    "zak --v 1e-310 --w 1e-309 --a 1",
    "bands --v=-1e-320 --w 1e-320 --a 1 --samples 5",
    "bands --v 0.5 --w 1 --a 1e10 --kmax 1e300 --samples 5",
    "berry --v 0.5 --w 1 --a 1 --order 1 --cutoff-k 1e308",
    "approx --v 0.5 --w 1 --a 1 --order 2 --kmax 1e200",
    "bands --v 1e308 --w -3e299 --a 1",
    "zak --v -1e-320 --w 1e-320 --a 1",
    "zak --v 1 --w -1 --a 1 --nk 17",
    "zak --v 0.5 --w 1 --a 1e-307",
    "zak --v 0.5 --w 1 --a 5e-324",
    "approx --v 0.5 --w 1 --a 1e-310 --samples 5",
    "approx --v 1 --w 0 --a 1 --order 2 --kmax 1e200 --samples 3",
    "berry --v 0.5 --w 1 --a 1e-310 --order 1",
    "bands --v 0.5 --w 1 --a 1e-310",
    f"edge --v0 1 --w0 0.5 {SMALL} --n-a 1 --n-b 1",
    "edge --v0 0.5 --w0 1 --a 1e300 --L 2e301 --dx 1e299 --n-a 1 --n-b 1",
    "edge --v0 0.5 --w0 1 --a 1e-200 --L 2e-199 --dx 1e-201 --n-a 1 --n-b 1",
    "edge --v0 1e-200 --w0 2e-200 --a 1 --L 20 --dx 0.1 --n-a 1 --n-b 1",
    "edge --v0 1e300 --w0 1e-300 --a 1 --L 20 --dx 0.1 --n-a 1 --n-b 1",
    "edge --v0 1e-300 --w0 1e300 --a 1 --L 20 --dx 0.1 --n-a 1 --n-b 1",
    "edge --v0 0.5 --w0 1 --a 1e308 --L 1.6e308 --dx 1e307 --n-a 1 --n-b 1",
    "edge --v0 0.5 --w0 1 --a 1e307 --L 1.6e308 --dx 1e306 --n-a 1 --n-b 1",
    "edge --v0 0.5 --w0 1 --a 1e-310 --L 2e-309 --dx 1e-311 --n-a 1 --n-b 1",
    "edge --v0 0.5 --w0 1 --a 0.1 --L 150 --dx 0.01 --n-a 1 --n-b 1",
]

COMMANDS = list(dict.fromkeys(README + BOXES + EDGE + BULK + EXTREME))  # each line once


def _field(h, data: bytes) -> None:
    h.update(b"%d:" % len(data))
    h.update(data)


def run_hash(command: str, env: dict) -> str:
    """sha256 of one run: exit code, stdout, stderr less the timing line, written files."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "nonlocal_ssh", *shlex.split(command)],
                              cwd=tmp, env=env, capture_output=True)
        h = hashlib.sha256()
        _field(h, b"%d" % proc.returncode)
        _field(h, proc.stdout)
        _field(h, TIMING.sub(b"", proc.stderr))
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            _field(h, path.relative_to(tmp).as_posix().encode())
            _field(h, path.read_bytes())
    return h.hexdigest()


def main() -> None:
    # the runs start in temporary directories, so PYTHONPATH must not be relative
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p)
    for command in COMMANDS:
        print(f"{run_hash(command, env)}  {command}", flush=True)


if __name__ == "__main__":
    main()
