"""Store × dimension-registry interaction (fresh-process warm start).

The dimension plane compiles its kernel through ``compile_structure``,
so it warm-starts from the same ``kernel`` artifact as every other
caller.  The compiled BDD depends only on the path sets and the variable
order, so a process that registered a custom dimension reuses the
artifact built for the built-in set, and the store holds no artifact
kind of the dimension plane's own.
"""

import json
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.dimensions

_SCRIPT = r"""
import json, sys
from repro import store
from repro.dependability import bdd
from repro.dimensions import (
    dimension_from_dict,
    evaluate_dimensions,
    register_dimension,
)

fs = frozenset
GROUPS = [[fs({"a", "x"}), fs({"b", "x"})], [fs({"x", "s"})]]
TABLE = {"a": 0.9, "b": 0.8, "x": 0.99, "s": 0.95}

if "--sift" in sys.argv:
    # force the sifting pass, as tests.conftest.always_sift does
    bdd._AUTO_MIN_NODES = bdd._AUTO_GROWTH = 0
names = ["availability", "performability"]
if "--custom" in sys.argv:
    register_dimension(
        dimension_from_dict(
            {
                "name": "footprint",
                "semiring": "set-union",
                "annotation": {"key": "unit_cost", "default": 2.0, "lower": 0.0},
                "higher_is_better": False,
            }
        )
    )
    names.append("footprint")

report = evaluate_dimensions(
    GROUPS, names, annotations={"availability": TABLE}
)
print(
    json.dumps(
        {
            "fingerprint": report.dimension_fingerprint,
            "kernel_fingerprint": report.kernel_fingerprint,
            "compilations": bdd.kernel_stats()["compilations"],
            "store": store.active_store().stats(),
            "availability": report["availability"].value.hex(),
            "performability": report["performability"].value.hex(),
            "footprint": (
                report["footprint"].value if "footprint" in report else None
            ),
        }
    )
)
"""


def _run(store_dir, *extra_args):
    env = dict(os.environ)
    env["REPRO_STORE"] = str(store_dir)
    env["PYTHONPATH"] = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "src")
    )
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *extra_args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_custom_dimension_set_reuses_the_kernel_artifact(tmp_path):
    store = tmp_path / "store"

    first = _run(store)
    assert first["compilations"] == 1
    assert first["store"]["writes"] == 1

    # a custom dimension changes the dimension-set fingerprint, not the
    # kernel: the fresh process loads the artifact the first one wrote
    custom = _run(store, "--custom")
    assert custom["fingerprint"] != first["fingerprint"]
    assert custom["compilations"] == 0
    assert custom["store"]["hits"] == 1
    assert custom["store"]["writes"] == 0
    assert custom["kernel_fingerprint"] == first["kernel_fingerprint"]
    assert custom["availability"] == first["availability"]
    assert custom["performability"] == first["performability"]
    # 4 distinct components at unit cost 2.0
    assert custom["footprint"] == pytest.approx(8.0)

    from repro.store import _store_for

    kinds = [obj.kind for obj in _store_for(str(store)).objects()]
    assert kinds == ["kernel"]
    assert "dimkernel" not in kinds


def test_sifted_kernel_fingerprint_is_stable_across_processes(tmp_path):
    """A warm process reports the fingerprint the cold one compiled
    under: the structure fingerprint, the same as an unsifted kernel's."""
    store = tmp_path / "store"

    cold = _run(store, "--sift")
    warm = _run(store, "--sift")
    assert cold["compilations"] == 1
    assert warm["compilations"] == 0
    plain = _run(tmp_path / "plain")
    assert cold["kernel_fingerprint"] == plain["kernel_fingerprint"]
    assert warm["kernel_fingerprint"] == cold["kernel_fingerprint"]
    assert warm["availability"] == cold["availability"]
    assert warm["performability"] == cold["performability"]
