"""Golden artifacts: a fixed list of commands writes the same bytes, and
prints the same text, as when ``tests/golden.json`` was recorded.

The file holds, per command, its exit code, its stdout, and for each file
it wrote the SHA-256 of the file and a short digest of each line (to name
the first line that differs).  It also records the Python, numpy and scipy
versions and the platform, since bits from libm and SIMD kernels are not
portable; under another one the test fails and names the difference.

After a deliberate artifact change, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and say which files moved, and why, beside the change.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile

import numpy as np
import scipy

from tailopt import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

_RUN = ["run", "--T", "2000", "--seeds", "3"]
# each command writes into its own relative --out
COMMANDS = [
    [*_RUN, "--out", "run_nsgd"],
    [*_RUN, "--algo", "nigt", "--q", "1.5", "--plots", "--out", "run_nigt"],
    [*_RUN, "--problem", "quadratic", "--q", "1.2", "--warmup", "hold",
     "--out", "run_quadratic"],
    [*_RUN, "--noise-scale", "0", "--out", "run_noiseless"],
    ["rate-sweep", "--T-grid", "100,1000,10000", "--seeds", "2", "--plots",
     "--out", "rate_sweep"],
    ["burn-in", "--T", "2000", "--seeds", "3", "--warmup-steps", "200",
     "--out", "burn_in"],
    ["concentration", "--out", "concentration"],
    ["verify", "--seed", "0", "--out", "verify"],
]


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def _line_digests(data: bytes) -> str:
    """Four hex digits of SHA-256 per line, concatenated."""
    return "".join(hashlib.sha256(line).hexdigest()[:4]
                   for line in data.splitlines(keepends=True))


def record(workdir: str) -> dict:
    """Run every command with ``workdir`` as the working directory; per
    command its exit code, stdout and, per file written under its --out
    (by relative path), the file's digests."""
    commands = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in COMMANDS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            out = argv[argv.index("--out") + 1]
            files = {}
            for root, _, names in sorted(os.walk(out)):
                for name in sorted(names):
                    path = os.path.join(root, name)
                    with open(path, "rb") as fh:
                        data = fh.read()
                    files[os.path.relpath(path, out).replace(os.sep, "/")] = {
                        "sha256": hashlib.sha256(data).hexdigest(),
                        "lines": _line_digests(data)}
            commands.append({"argv": argv, "exit": code,
                             "stdout": stdout.getvalue(), "files": files})
    finally:
        os.chdir(cwd)
    return {"environment": environment(), "commands": commands}


def _first_difference(expected, actual, block: int = 1):
    """The 1-based index of the first differing block of ``block`` items,
    a line in lists of lines or a digest in strings of line digests, or
    None if both agree."""
    n = max(len(expected), len(actual))
    for i in range(0, n, block):
        if expected[i:i + block] != actual[i:i + block]:
            return i // block + 1
    return None


def _mismatches(golden: dict, actual: dict, workdir: str) -> list[str]:
    """One message per command or file that differs from the golden record."""
    found = []
    for want, got in zip(golden["commands"], actual["commands"]):
        name = " ".join(want["argv"])
        if want["exit"] != got["exit"]:
            found.append(f"{name}: exit {got['exit']}, recorded {want['exit']}")
        want_lines = want["stdout"].splitlines()
        got_lines = got["stdout"].splitlines()
        if want_lines != got_lines:
            i = _first_difference(want_lines, got_lines)
            found.append(f"{name}: stdout line {i} is "
                         f"{(got_lines[i - 1:i] or ['<missing>'])[0]!r}, recorded "
                         f"{(want_lines[i - 1:i] or ['<missing>'])[0]!r}")
        out = want["argv"][want["argv"].index("--out") + 1]
        for rel in sorted(set(want["files"]) | set(got["files"])):
            if rel not in got["files"] or rel not in want["files"]:
                state = "not written" if rel not in got["files"] else "not recorded"
                found.append(f"{name}: {out}/{rel} {state}")
                continue
            if want["files"][rel]["sha256"] == got["files"][rel]["sha256"]:
                continue
            i = _first_difference(want["files"][rel]["lines"],
                                  got["files"][rel]["lines"], 4)
            with open(os.path.join(workdir, out, rel), "rb") as fh:
                lines = fh.read().splitlines()
            line = lines[i - 1] if i is not None and i <= len(lines) else b"<missing>"
            found.append(f"{name}: {out}/{rel} differs, first at line {i}: "
                         f"{line.decode(errors='replace')[:200]!r}")
    return found


def test_golden_artifacts(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    env = environment()
    moved = {k: (golden["environment"].get(k), v) for k, v in env.items()
             if golden["environment"].get(k) != v}
    assert not moved, ("golden.json was recorded on another environment "
                       "(recorded, here): " + repr(moved))
    assert [c["argv"] for c in golden["commands"]] == COMMANDS
    found = _mismatches(golden, record(str(tmp_path)), str(tmp_path))
    assert not found, "\n".join(found)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        recorded = record(workdir)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
