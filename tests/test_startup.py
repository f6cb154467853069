"""Import contract: no command needs scipy.

The package computes its log-gamma and log-sum-exp itself, so scipy is a
test-only dependency. The check runs every command in a fresh interpreter
in which ``import scipy`` fails, because this test process has scipy loaded
already; it inherits this process's warning options and development mode.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import dpcounts

SRC = Path(dpcounts.__file__).resolve().parent.parent

CSV = """group_id,state_id,population,count
c1,s1,100.0,3
c2,s1,200.0,7
c3,s2,400.0,2
c4,s2,300.0,5
"""

# run in order in one interpreter, with {counts} and {pair} standing for a
# small counts file and a two-group one; each must exit 0
COMMANDS = [
    "synthesize --method md --epsilon 1 --m 2 --input {counts}",
    "synthesize --method pg-multinomial --epsilon 1 --input {counts}",
    "synthesize --method pg-multinomial --epsilon 1 --input {counts} "
    "--target-rule state --state-noise-epsilon 1",
    "calibrate --method md --epsilon 1 --z-total 10",
    "calibrate --method pg-national --epsilon 1 --input {counts}",
    "lemma-check",
    "bound-sweep --max-a 2 --max-y-total 4",
    "simulate --replicates 2 --n-groups 20 --y-total 100",
    "audit --method md --epsilon 1 --y-total 4",
    "audit --method pg2 --epsilon 1 --y-total 4 --populations 1,4 --target-rates 0.8,0.25",
    "audit --method pg2 --epsilon 1 --y-total 4 --populations 1,4 --target-rates 0.8,0.25 "
    "--exact",
    "synthesize --method pg-multinomial --epsilon 1 --input {pair}",
]

SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
import dpcounts.cli as cli
report = []
for k, argv in enumerate(json.loads(sys.argv[1])):
    try:
        cli.main(argv + ["--output", f"out{k}.dat"])
    except SystemExit as done:
        code = done.code
    report.append([argv[0], code])
print(json.dumps(report))
"""


def test_no_command_needs_scipy(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text(CSV)
    pair = tmp_path / "pair.csv"
    pair.write_text("".join(CSV.splitlines(keepends=True)[:3]))
    argvs = [command.format(counts=counts, pair=pair).split() for command in COMMANDS]
    flags = [f"-W{option}" for option in sys.warnoptions]
    if sys.flags.dev_mode:
        flags += ["-X", "dev"]
    proc = subprocess.run([sys.executable, *flags, "-c", SCRIPT, json.dumps(argvs)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == [[command.split()[0], 0] for command in COMMANDS], proc.stderr
