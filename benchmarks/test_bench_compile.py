"""Benches for the array-native BDD compilation plane (experiment ``compile``).

The rebuilt construction path — open-addressed int64 tables, iterative
worklist apply, level-synchronous bulk batching — must beat the seed's
dict-and-recursion compiler by 3× on structure families heavy enough
for table pressure to matter, and sifting must at least halve the
adversarial interleaved family.  The dict compiler below is an inline
replica of the seed implementation (tuple-keyed unique table, recursive
apply with a dict memo, sequential fold order) so the comparison tracks
the real before/after of this plane, not a strawman.

Record a baseline with::

    pytest benchmarks/test_bench_compile.py -q --benchmark-json=BENCH_compile.json

and compare future runs with ``python benchmarks/compare.py``.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Sequence, Tuple

import pytest

from repro.dependability import bdd as bdd_mod
from repro.dependability.bdd import (
    compile_structure,
    frequency_order,
)

COMPILE_FLOOR = 3.0
SIFT_NODE_FLOOR = 2.0
TOLERANCE = 1e-12


# -- the seed-era compiler, verbatim in miniature ----------------------------


class DictBDD:
    """The pre-plane manager: tuple-keyed dict unique table, recursive
    ``mk``/``apply`` with a dict memo — the seed's construction path."""

    FALSE = 0
    TRUE = 1

    def __init__(self, nvar: int):
        self.nvar = nvar
        self.var: List[int] = [nvar, nvar]
        self.low: List[int] = [-1, -1]
        self.high: List[int] = [-1, -1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._cache: Dict[Tuple[str, int, int], int] = {}

    def mk(self, variable: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (variable, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self.var)
            self.var.append(variable)
            self.low.append(low)
            self.high.append(high)
            self._unique[key] = node
        return node

    def cube(self, variables) -> int:
        node = self.TRUE
        for v in sorted(set(variables), reverse=True):
            node = self.mk(v, self.FALSE, node)
        return node

    def _apply(self, op: str, a: int, b: int) -> int:
        if op == "and":
            if a == self.FALSE or b == self.FALSE:
                return self.FALSE
            if a == self.TRUE:
                return b
            if b == self.TRUE:
                return a
        else:
            if a == self.TRUE or b == self.TRUE:
                return self.TRUE
            if a == self.FALSE:
                return b
            if b == self.FALSE:
                return a
        if a == b:
            return a
        if a > b:
            a, b = b, a
        key = (op, a, b)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        va, vb = self.var[a], self.var[b]
        v = min(va, vb)
        a0, a1 = (self.low[a], self.high[a]) if va == v else (a, a)
        b0, b1 = (self.low[b], self.high[b]) if vb == v else (b, b)
        result = self.mk(
            v, self._apply(op, a0, b0), self._apply(op, a1, b1)
        )
        self._cache[key] = result
        return result


def dict_compile(
    path_set_groups: Sequence[Sequence[FrozenSet[str]]],
) -> Tuple[DictBDD, int, List[int], Tuple[str, ...]]:
    """The seed ``compile_structure`` body over :class:`DictBDD`:
    sequential OR fold per group, sequential AND fold across groups."""
    groups = [list(group) for group in path_set_groups]
    ordered = frequency_order(groups)
    index = {name: i for i, name in enumerate(ordered)}
    bdd = DictBDD(len(ordered))
    group_roots = []
    for group in groups:
        root = bdd.FALSE
        for path in group:
            root = bdd._apply("or", root, bdd.cube(index[c] for c in path))
        group_roots.append(root)
    system = bdd.TRUE
    for root in dict.fromkeys(group_roots):
        system = bdd._apply("and", system, root)
    return bdd, system, group_roots, ordered


# -- structure families ------------------------------------------------------


def windowed_family(windows: int = 300, width: int = 8):
    """A sliding-window redundancy family: path ``i`` is the components
    ``i..i+width`` of one shared pool.  Every level of the diagram hosts
    a wide batch (components are shared by *width* paths), the default
    frequency order scatters the low-count boundary components enough to
    give the unique/memo tables real pressure, and the diagram stays
    polynomial — the regime the dict compiler handles worst and the
    array plane batches best."""
    pool = [f"wc{i:04d}" for i in range(windows + width)]
    return [[frozenset(pool[i : i + width]) for i in range(windows)]]


def interleaved_family(pairs: int = 9):
    """``x1·y1 + x2·y2 + ...`` under the order ``x*...y*`` — exponential
    until sifting makes partners adjacent."""
    groups = [[frozenset({f"x{i}", f"y{i}"}) for i in range(pairs)]]
    order = [f"x{i}" for i in range(pairs)] + [
        f"y{i}" for i in range(pairs)
    ]
    return groups, order


def _best(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _availability_table(variables, base: float = 0.97):
    return {v: base - 0.2 * (i % 5) / 10.0 for i, v in enumerate(variables)}


# -- single-structure compile: array plane vs dict recursion -----------------


def test_compile_vs_dict_baseline(benchmark, monkeypatch):
    """One heavy structure, compiled cold by both planes: ≥3× wall-clock
    and identical semantics (availability to 1e-12, exact minimal
    sets derived from the same inputs).  The family's manager (51,736
    nodes with the fold's dead intermediates) crosses the bloat rule,
    and the dict compiler never reorders, so the rule is switched off to
    time construction alone."""
    structure = windowed_family()
    monkeypatch.setattr(bdd_mod, "_AUTO_MIN_NODES", float("inf"))

    def array_compile():
        return compile_structure(structure, use_cache=False)

    kernel = benchmark(array_compile)

    dict_time = _best(lambda: dict_compile(structure), reps=2)
    array_time = _best(array_compile, reps=3)
    ratio = dict_time / array_time
    assert ratio >= COMPILE_FLOOR, (
        f"array compile only {ratio:.2f}x over the dict baseline"
    )

    # same diagram: node-for-node count and spot-check availability
    # against an independent recursive evaluation of the dict manager
    bdd, system, _, ordered = dict_compile(structure)
    reachable = set()
    stack = [system]
    while stack:
        node = stack.pop()
        if node > 1 and node not in reachable:
            reachable.add(node)
            stack.append(bdd.low[node])
            stack.append(bdd.high[node])
    assert kernel.size == len(reachable)

    table = _availability_table(kernel.variables)
    p = [table[name] for name in ordered]
    memo = {0: 0.0, 1: 1.0}
    # in an ordered BDD, descending variable index is a valid
    # bottom-up evaluation order
    for node in sorted(reachable, key=lambda n: -bdd.var[n]):
        lo, hi = memo[bdd.low[node]], memo[bdd.high[node]]
        pv = p[bdd.var[node]]
        memo[node] = pv * hi + (1.0 - pv) * lo
    assert kernel.availability(table) == pytest.approx(
        memo[system], abs=TOLERANCE
    )


def test_dict_baseline_recorded(benchmark):
    """The dict compiler's own time, recorded for the trajectory."""
    structure = windowed_family()
    bdd, system, _, _ = benchmark.pedantic(
        dict_compile, args=(structure,), rounds=2, iterations=1
    )
    assert system > 1


# -- sifting on the adversarial family ---------------------------------------


def test_sifting_halves_adversarial_family(benchmark, monkeypatch):
    """The interleaved family under its worst-case order: sifting must
    reduce live nodes ≥2× while preserving the function exactly.  The
    family sits below the bloat rule's node threshold, so the test
    forces the pass by zeroing both thresholds."""
    groups, order = interleaved_family()
    plain = compile_structure(groups, order=order, use_cache=False)
    monkeypatch.setattr(bdd_mod, "_AUTO_MIN_NODES", 0)
    monkeypatch.setattr(bdd_mod, "_AUTO_GROWTH", 0)

    def sifted_compile():
        return compile_structure(groups, order=order, use_cache=False)

    sifted = benchmark(sifted_compile)
    ratio = plain.size / sifted.size
    assert ratio >= SIFT_NODE_FLOOR, (
        f"sifting only shrank the adversarial family {ratio:.2f}x "
        f"({plain.size} -> {sifted.size} nodes)"
    )
    table = _availability_table(plain.variables, base=0.9)
    assert sifted.availability(table) == pytest.approx(
        plain.availability(table), abs=TOLERANCE
    )
    assert {frozenset(s) for s in sifted.minimal_path_sets()} == {
        frozenset(s) for s in plain.minimal_path_sets()
    }
    assert {frozenset(s) for s in sifted.minimal_cut_sets()} == {
        frozenset(s) for s in plain.minimal_cut_sets()
    }
