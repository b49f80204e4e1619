"""The README's examples run as written, its list of output files is what
the commands write, and its command-line section names the flags there are."""

import argparse
import dataclasses
import math
import os
import re

import pytest

from tailopt import cli
from tailopt.harness import RunConfig
from tailopt.verify import CheckResult

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_readme_python_tour_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 1  # the five-line tour
    exec(compile(blocks[0], "README.md", "exec"), {})
    # tau, burn-in, final objective and smallest gradient norm
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 4 and all(math.isfinite(v) for v in values)
    assert values[0] > 0 and values[1] >= 0 and values[3] >= 0


# the README's table of output files: command (with --plots or not), file, format
_FILE_ROW = re.compile(r"^\| `([a-z-]+)( --plots)?` \| `([^`]+)` \| (.+) \|$", re.M)

# each command at a tiny size
_TINY = {"run": ["--T", "50", "--dim", "3", "--seeds", "2"],
         "rate-sweep": ["--T-grid", "50,200,1600", "--dim", "3"],
         "burn-in": ["--T", "50", "--dim", "3", "--seeds", "2"],
         "verify": [],
         "concentration": ["--trials", "50", "--length", "5"]}


def _readme_files():
    with open(README, encoding="utf-8") as fh:
        return _FILE_ROW.findall(fh.read())


@pytest.mark.parametrize("argv", [["run"], ["run", "--plots"], ["rate-sweep"],
                                  ["rate-sweep", "--plots"], ["burn-in"],
                                  ["verify"], ["concentration"]],
                         ids=" ".join)
def test_readme_lists_every_file_each_command_writes(tmp_path, monkeypatch,
                                                     capsys, argv):
    def stub_suite(seed=0, sizes=None, delta=0.1):  # the report, not the checks
        return [CheckResult("stub", 1, 0, 0.5, True)]

    monkeypatch.setattr("tailopt.verify.run_verification_suite", stub_suite)
    out = tmp_path / "out"
    assert cli.main([*argv, *_TINY[argv[0]], "--out", str(out)]) == 0
    listed = {file: fmt for command, plots, file, fmt in _readme_files()
              if command == argv[0] and (not plots or "--plots" in argv)}
    written = {}
    for path in out.rglob("*"):
        if path.is_file():
            written[re.sub(r"seed_\d{4}", "seed_NNNN",
                           path.relative_to(out).as_posix())] = path
    assert set(written) == set(listed)
    for file, path in written.items():
        header = re.match(r"CSV `([^`]+)`", listed[file])
        if header:
            assert path.read_text().splitlines()[0] == header.group(1)


def test_readme_command_line_names_every_run_flag_and_only_real_flags():
    with open(README, encoding="utf-8") as fh:
        section = re.search(r"^## Command line\n(.*?)^## ", fh.read(), re.M | re.S).group(1)
    named = set(re.findall(r"--[A-Za-z][\w-]*", section)) - {"--name"}  # the pattern
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    every_flag = {flag for parser in sub.choices.values()
                  for action in parser._actions for flag in action.option_strings}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    run_flags = {flag for action in sub.choices["run"]._actions
                 if action.dest in fields for flag in action.option_strings}
    assert run_flags - named == set(), "flags of run the README does not name"
    assert named - every_flag == set(), "flags the README names that no command has"
