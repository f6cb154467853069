"""Import contract: scipy stays off the start-up path.

Only the audit and exact-pair kernels need ``scipy.special``, and they
import it when first called, so ``import dpcounts.cli`` and every command
that never calls them start without it. The check runs in a fresh
interpreter, because this test process has scipy loaded already; it
inherits this process's warning options and development mode, so a lazy
first import also runs under them.
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
# small counts file and a two-group one; each entry is (command line,
# whether scipy is loaded once it has run)
COMMANDS = [
    ("synthesize --method md --epsilon 1 --m 2 --input {counts}", False),
    ("synthesize --method pg-multinomial --epsilon 1 --input {counts}", False),
    ("synthesize --method pg-multinomial --epsilon 1 --input {counts} "
     "--target-rule state --state-noise-epsilon 1", False),
    ("calibrate --method md --epsilon 1 --z-total 10", False),
    ("calibrate --method pg-national --epsilon 1 --input {counts}", False),
    ("lemma-check", False),
    ("bound-sweep --max-a 2 --max-y-total 4", False),
    ("simulate --replicates 2 --n-groups 20 --y-total 100", False),
    ("audit --method pg2 --epsilon 1 --y-total 4 --populations 1,4 "
     "--target-rates 0.8,0.25", True),
    ("synthesize --method pg-exact2 --epsilon 1 --input {pair}", True),
]

SCRIPT = """
import json, sys
import dpcounts.cli as cli
report = [["import", 0, "scipy" in sys.modules]]
for k, argv in enumerate(json.loads(sys.argv[1])):
    try:
        cli.main(argv + ["--output", f"out{k}.dat"])
    except SystemExit as done:
        code = done.code
    report.append([argv[0], code, "scipy" in sys.modules])
print(json.dumps(report))
"""


def test_scipy_loads_only_for_audits_and_exact_pairs(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text(CSV)
    pair = tmp_path / "pair.csv"
    pair.write_text("".join(CSV.splitlines(keepends=True)[:3]))
    argvs = [command.format(counts=counts, pair=pair).split() for command, _ in COMMANDS]
    flags = [f"-W{option}" for option in sys.warnoptions]
    if sys.flags.dev_mode:
        flags += ["-X", "dev"]
    proc = subprocess.run([sys.executable, *flags, "-c", SCRIPT, json.dumps(argvs)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    expected = [["import", 0, False]] + [[command.split()[0], 0, loads]
                                         for command, loads in COMMANDS]
    assert report == expected, proc.stderr
