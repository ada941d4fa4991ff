"""Golden output of ``upsim casestudy``: full stdout and exit code.

Each case runs the command in a fresh interpreter, exactly as a user does,
and compares its whole stdout byte for byte with ``tests/golden/<slug>.out``.
The hash seed is fixed because the inclusion-exclusion kernel sums over
sets, so its last-ulp rounding (and with it the order of tied importance
rows) follows string hashing.

To re-record a golden file after an intended output change, run the
command with ``PYTHONHASHSEED=0`` and save its stdout, e.g.::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m repro.cli casestudy \\
        --kernel ie > tests/golden/casestudy_kernel_ie.out
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath(os.path.join(HERE, "..", "src"))
GOLDEN = os.path.join(HERE, "golden")

#: (golden-file slug, casestudy flags)
CASES = [
    ("casestudy_default", []),
    ("casestudy_t15_p3", ["--client", "t15", "--printer", "p3"]),
    ("casestudy_service", ["--service", "request_printing"]),
    ("casestudy_kernel_enum", ["--kernel", "enum"]),
    ("casestudy_kernel_ie", ["--kernel", "ie"]),
    ("casestudy_inject_e3", ["--inject", "crash:e3"]),
    (
        "casestudy_inject_e3_cut",
        ["--inject", "crash:e3", "--inject", "cut:c1|c2"],
    ),
    (
        "casestudy_inject_e3_service",
        ["--inject", "crash:e3", "--service", "request_printing"],
    ),
    ("casestudy_dimensions", ["--dimensions", "availability,cost"]),
    ("casestudy_mc200", ["--mc", "200"]),
]


@pytest.mark.parametrize(
    ("slug", "flags"), CASES, ids=[slug for slug, _ in CASES]
)
def test_casestudy_stdout_is_golden(slug, flags):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_STORE"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "casestudy", *flags],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    with open(os.path.join(GOLDEN, f"{slug}.out"), encoding="utf-8") as handle:
        expected = handle.read()
    assert result.stdout == expected
