"""BDD kernel edge cases surfaced by the dimension plane: constant
roots (a zero-component path makes a pair trivially connected), single
variable kernels, and the vectorized entry points on them."""

import numpy as np
import pytest

from repro.dependability.bdd import compile_structure
from repro.dimensions import evaluate_dimensions
from repro.errors import AnalysisError

fs = frozenset

pytestmark = pytest.mark.dimensions


class TestConstantRootKernel:
    """groups = [[{a}, {}]] — the empty path short-circuits the pair, so
    the system root is the TRUE terminal and every probability query is
    constant 1.0 regardless of the table."""

    @pytest.fixture()
    def kernel(self):
        return compile_structure(
            [[fs("a"), fs(())]], order=["a"], use_cache=False
        )

    def test_availability_is_constant(self, kernel):
        assert kernel.availability({"a": 0.3}) == 1.0
        assert kernel.availability({"a": 0.0}) == 1.0

    def test_evaluate_perturbed_sweeps_constant(self, kernel):
        base = kernel.probability_vector({"a": 0.5})
        values = np.linspace(0.0, 1.0, 7)
        swept = kernel.evaluate_perturbed(base, 0, values)
        assert swept.shape == (7,)
        assert np.all(swept == 1.0)

    def test_evaluate_many_with_out(self, kernel):
        matrix = np.array([[0.0], [0.25], [1.0]])
        result = kernel.evaluate_many(matrix)
        assert result.shape == (3,)
        assert np.all(result == 1.0)

    def test_evaluate_many_all(self, kernel):
        roots, groups = kernel.evaluate_many_all(np.array([[0.1], [0.9]]))
        assert roots.shape == (2,)
        assert groups.shape == (2, 1)
        assert np.all(roots == 1.0)
        assert np.all(groups == 1.0)


class TestSingleVariableKernel:
    @pytest.fixture()
    def kernel(self):
        return compile_structure([[fs("a")]], order=["a"], use_cache=False)

    def test_evaluate_perturbed_tracks_values(self, kernel):
        base = kernel.probability_vector({"a": 0.5})
        values = np.array([0.0, 0.25, 1.0])
        swept = kernel.evaluate_perturbed(base, 0, values)
        assert np.allclose(swept, values, atol=0)

    def test_evaluate_perturbed_validation(self, kernel):
        base = kernel.probability_vector({"a": 0.5})
        with pytest.raises(AnalysisError, match="out of range"):
            kernel.evaluate_perturbed(base, 1, np.array([0.5]))
        with pytest.raises(AnalysisError, match="shape"):
            kernel.evaluate_perturbed(np.array([0.5, 0.5]), 0, np.array([0.5]))

    def test_evaluate_many_all_empty_and_shapes(self, kernel):
        roots, groups = kernel.evaluate_many_all(
            np.empty((0, 1), dtype=np.float64)
        )
        assert roots.shape == (0,)
        assert groups.shape == (0, 1)
        with pytest.raises(AnalysisError, match="matrix"):
            kernel.evaluate_many_all(np.empty((2, 3)))

    def test_evaluate_many_all_matches_evaluate_all(self, kernel):
        tables = [{"a": 0.2}, {"a": 0.9}]
        roots, groups = kernel.evaluate_many_all(tables)
        for row, table in enumerate(tables):
            root, per_group = kernel.evaluate_all(table)
            assert roots[row] == root
            assert tuple(groups[row]) == per_group


class TestZeroComponentStructures:
    def test_compile_rejects_all_empty(self):
        with pytest.raises(AnalysisError, match="at least one component"):
            compile_structure([[fs(())]], use_cache=False)

    def test_compile_rejects_empty_group(self):
        with pytest.raises(AnalysisError, match="never connected"):
            compile_structure([[fs("a")], []], use_cache=False)

    def test_evaluate_dimensions_rejects_componentless_structure(self):
        with pytest.raises(AnalysisError, match="at least one component"):
            evaluate_dimensions([[fs(())]], ["cost"])
        with pytest.raises(AnalysisError, match="at least one group"):
            evaluate_dimensions([], ["cost"])
        with pytest.raises(AnalysisError, match="never connected"):
            evaluate_dimensions([[fs("a")], []], ["cost"])

    def test_trivially_connected_pair_through_registry(self):
        # a pair with an empty path alongside a real one: availability of
        # that pair is exactly 1 and the system root equals the other
        # pair's availability
        groups = [[fs("a")], [fs("b"), fs(())]]
        report = evaluate_dimensions(
            groups,
            ["availability", "performability"],
            annotations={"availability": {"a": 0.7, "b": 0.4}},
        )
        assert report["availability"].per_pair == (0.7, 1.0)
        assert report["availability"].value == pytest.approx(0.7, abs=1e-15)
        assert report["performability"].value == pytest.approx(
            (0.7 + 1.0) / 2, abs=1e-15
        )
