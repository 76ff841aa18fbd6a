"""The multicommodity LP on a reused HiGHS instance.

:func:`repro.core.mcmf.multicommodity_min_time` hands HiGHS the model
``scipy.optimize.linprog`` would, assembled straight into CSC form from
the candidate's flow template; the ``linprog`` formulation, assembled
from the candidate's topology, is kept as
:func:`tests.oracles.reference_multicommodity_min_time`, and the
topology-built model as :func:`tests.oracles.reference_lp_model`.
These tests pin the template-built model to the topology-built one
element for element and the two solves to each other bit for bit on
every LP a search solves, pin the array hand-off to a ``HighsLp``
filled field by field and to ``linprog`` on every LP of the planning
benchmark's searches, check the post-solve feasibility guard that
replaces ``linprog``'s, and check that each search owns its solver
(threads, pool workers).
"""

from __future__ import annotations

import functools
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.mcmf as mcmf
import repro.core.search as search
import tests.oracles as oracles
from repro.core.flowmodel import FlowTemplate, TrafficDemand
from repro.core.mcmf import multicommodity_min_time, new_lp_solver
from repro.core.optimizer import MomentOptimizer
from repro.core.search import concrete_demand, run_search
from repro.core.topology import LinkKind, TopologyMask
from repro.graphs.datasets import IGB_HOM
from repro.hardware.machines import classic_layouts, machine_a, machine_b
from tests.oracles import reference_lp_model, reference_multicommodity_min_time
from tests.test_search import DIFFERENTIAL_FABRICS, _ranking, _request


@functools.lru_cache(maxsize=None)
def _plan_fractions():
    """The tier fractions a ``plan-a`` / ``plan-b`` benchmark operation
    searches with: its IGB-HOM input (seed 0, 16x the default scale
    divisor) on a 4-GPU / 8-SSD pool (machines A and B agree)."""
    dataset = IGB_HOM.build(scale=IGB_HOM.default_scale * 16, seed=0)
    optimizer = MomentOptimizer(machine_b(), 4, 8)
    fractions, _ = optimizer.plan_fractions(
        dataset, optimizer.estimate_hotness(dataset)
    )
    return fractions


#: The searches of the two planning benchmark workloads.
PLAN_ROWS = [
    ("plan-a", machine_a, dict(num_gpus=4, num_ssds=8, fractions="plan",
                               lp_top_k=48, top_k=10)),
    ("plan-b", machine_b, dict(num_gpus=4, num_ssds=8, fractions="plan",
                               lp_top_k=48, top_k=10)),
]


def _resolve(overrides, machine):
    """``overrides`` with the ``"plan"`` fractions and the layout-``c``
    candidate filled in."""
    overrides = dict(overrides)
    if overrides.get("fractions") == "plan":
        overrides["fractions"] = _plan_fractions()
    if overrides.get("candidates") == "c":
        overrides["candidates"] = (classic_layouts(machine)["c"],)
    return overrides


def _differential_rows():
    """(id, machine factory, request overrides) for every LP shape."""
    rows = [
        (name, make, dict(num_gpus=pool[0], num_ssds=pool[1]))
        for name, make, pool in DIFFERENTIAL_FABRICS
    ]
    for make in (machine_a, machine_b):
        rows.append(
            (
                f"{make.__name__}-4x8",
                make,
                dict(num_gpus=4, num_ssds=8, lp_top_k=48, top_k=10),
            )
        )
    rows.append(
        (
            "partitioned",
            machine_b,
            dict(num_gpus=2, num_ssds=4, gpu_cache_policy="partitioned"),
        )
    )
    # the replanning shape: layout c re-scored with ssd0 dropped
    rows.append(
        (
            "replan-drop-ssd0",
            machine_a,
            dict(
                num_gpus=4,
                num_ssds=8,
                candidates="c",
                mask=TopologyMask(drop_nodes=("ssd0",)),
            ),
        )
    )
    return rows + PLAN_ROWS


DIFFERENTIAL_ROWS = _differential_rows()


def _qpi_keys(topo):
    return {(l.src, l.dst) for l in topo.links if l.kind is LinkKind.QPI}


def _network(topo, demand=None):
    """``topo``'s flow template, the network the LP reads."""
    return FlowTemplate.from_topology(topo, demand or TrafficDemand())


def _search_lps(monkeypatch, machine, overrides):
    """Run one search; return its result and every LP it solved, in
    solve order, as ``(topology, template, demand, prediction)``.  The
    topology is the finalist's, built here the way the search would
    (under the request's mask)."""
    request = _request(machine, **overrides)
    finalists, solved = [], []
    score_exact = search.SearchEngine._score_exact
    solve = search.multicommodity_min_time

    def recording_exact(self, rows):
        finalists.extend(row[1] for row in rows)
        return score_exact(self, rows)

    def recording(network, demand, solver=None):
        prediction = solve(network, demand, solver)
        solved.append((network, demand, prediction))
        return prediction

    monkeypatch.setattr(search.SearchEngine, "_score_exact", recording_exact)
    monkeypatch.setattr(search, "multicommodity_min_time", recording)
    result = run_search(request)
    assert len(finalists) == len(solved) == result.num_lp_scored
    lps = []
    for placement, (network, demand, prediction) in zip(finalists, solved):
        topo = machine.build(placement, nvlink_pairs=request.nvlink_pairs)
        if request.mask is not None:
            topo = request.mask.apply(topo)
        lps.append((topo, network, demand, prediction))
    return result, lps


class TestLinprogDifferential:
    """Every LP a search solves equals the ``linprog`` formulation."""

    @pytest.mark.parametrize(
        "make_machine,overrides",
        [row[1:] for row in DIFFERENTIAL_ROWS],
        ids=[row[0] for row in DIFFERENTIAL_ROWS],
    )
    def test_every_finalist_bit_identical(
        self, monkeypatch, make_machine, overrides
    ):
        machine = make_machine()
        overrides = _resolve(overrides, machine)
        # serial, so every LP runs here where the recorder can see it
        _, solved = _search_lps(monkeypatch, machine, overrides)
        assert solved
        for topo, _, demand, got in solved:
            want = reference_multicommodity_min_time(topo, demand)
            assert got.scale == want.scale
            assert got.time == want.time
            assert got.throughput == want.throughput
            assert got.utilisation.keys() == want.utilisation.keys()
            qpi = _qpi_keys(topo)
            for key, value in want.utilisation.items():
                if key in qpi:
                    # the reference reports the device edge only
                    assert got.utilisation[key] >= value
                else:
                    assert got.utilisation[key] == value


class _Recording:
    """A solver that records every model handed to it and the solution
    read back."""

    def __init__(self):
        self._highs = new_lp_solver()
        self.models, self.solutions = [], []

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def passModel(self, *model):
        self.models.append(model)
        return self._highs.passModel(*model)

    def getSolution(self):
        solution = self._highs.getSolution()
        self.solutions.append(
            (np.array(solution.col_value), np.array(solution.row_value))
        )
        return solution


def _highs_lp_solution(model):
    """Solve an array-overload model filled into a ``HighsLp`` field by
    field instead, on a fresh instance."""
    from scipy.optimize._highspy import _core as highs

    (num_col, num_row, _, _, _, _, cost, col_lower, col_upper, row_lower,
     row_upper, start, index, value, _) = model
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = num_col
    lp.num_row_ = lp.a_matrix_.num_row_ = num_row
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, col_lower, col_upper
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    lp.a_matrix_.start_, lp.a_matrix_.index_ = start, index
    lp.a_matrix_.value_ = value
    solver = new_lp_solver()
    assert solver.passModel(lp) == highs.HighsStatus.kOk
    solver.run()
    solution = solver.getSolution()
    return np.array(solution.col_value), np.array(solution.row_value)


class TestArrayHandOff:
    """The model goes to HiGHS through ``passModel``'s array overload.
    On every LP of a planning benchmark search the solution is the one
    the same model gets filled into a ``HighsLp``, and the one
    ``linprog`` returns, bit for bit."""

    @pytest.mark.parametrize(
        "make_machine,overrides",
        [row[1:] for row in PLAN_ROWS],
        ids=[row[0] for row in PLAN_ROWS],
    )
    def test_solutions_identical_to_highs_lp_and_linprog(
        self, monkeypatch, make_machine, overrides
    ):
        machine = make_machine()
        recording = _Recording()
        linprog_results = []
        linprog = oracles.linprog

        def recording_linprog(*args, **kwargs):
            linprog_results.append(linprog(*args, **kwargs))
            return linprog_results[-1]

        monkeypatch.setattr(search, "new_lp_solver", lambda: recording)
        monkeypatch.setattr(oracles, "linprog", recording_linprog)
        result, problems = _search_lps(
            monkeypatch, machine, _resolve(overrides, machine)
        )
        assert len(recording.models) == result.num_lp_scored == 48
        assert len(recording.solutions) == len(problems) == 48
        for model, (col, row), (topo, _, demand, _) in zip(
            recording.models, recording.solutions, problems
        ):
            lp_col, lp_row = _highs_lp_solution(model)
            assert np.array_equal(col, lp_col)
            assert np.array_equal(row, lp_row)
            # linprog reports rows as slack = upper - activity
            reference_multicommodity_min_time(topo, demand)
            res = linprog_results[-1]
            slack = np.concatenate((res.ineqlin.residual, res.eqlin.residual))
            assert np.array_equal(res.x, col)
            assert np.array_equal(slack, model[10] - row)  # row upper

    def test_rejected_model_raises(self):
        """A model HiGHS refuses (here: matrix entries of 1e21 GB, past
        its infinity) raises instead of solving a stale one."""
        machine = machine_a()
        topo = machine.build(classic_layouts(machine)["c"])
        demand = TrafficDemand()
        demand.add("ssd0", "gpu0", 1e30)
        with pytest.raises(RuntimeError, match="HiGHS rejected the model"):
            multicommodity_min_time(_network(topo), demand, new_lp_solver())


class TestLpModelDifferential:
    """The LP is written over the candidate's flow template.  On every
    LP a search solves, the ``passModel`` arguments are the ones the
    topology-built model (:func:`reference_lp_model`) gives, element for
    element and bit for bit."""

    @pytest.mark.parametrize(
        "make_machine,overrides",
        [row[1:] for row in DIFFERENTIAL_ROWS],
        ids=[row[0] for row in DIFFERENTIAL_ROWS],
    )
    def test_template_model_equals_topology_model(
        self, monkeypatch, make_machine, overrides
    ):
        machine = make_machine()
        recording = _Recording()
        monkeypatch.setattr(search, "new_lp_solver", lambda: recording)
        _, lps = _search_lps(monkeypatch, machine, _resolve(overrides, machine))
        assert lps and len(recording.models) == len(lps)
        for model, (topo, _, demand, _) in zip(recording.models, lps):
            want = reference_lp_model(topo, demand)
            assert len(model) == len(want)
            for got, expected in zip(model, want):
                if isinstance(expected, np.ndarray):
                    assert got.dtype == expected.dtype
                    assert got.tobytes() == expected.tobytes()
                else:
                    assert type(got) is type(expected) and got == expected

    def test_masked_template_keeps_its_topology(self, monkeypatch):
        """A masked search's LP reads the template of the masked
        topology it built in pass 1."""
        machine = machine_a()
        rows = {row[0]: row[2] for row in DIFFERENTIAL_ROWS}
        overrides = _resolve(rows["replan-drop-ssd0"], machine)
        result, lps = _search_lps(monkeypatch, machine, overrides)
        (topo, network, _, _), = lps
        assert "ssd0" not in network.topology
        assert network.devices.ssds == topo.ssds()
        assert result.topology is network.topology


class TestFeasibilityCheck:
    """The post-solve guard ``linprog`` applied, kept without it."""

    @pytest.fixture()
    def lp(self):
        machine = machine_a()
        network = _network(machine.build(classic_layouts(machine)["c"]))
        return network, concrete_demand(network, (0.0, 0.1, 0.9), {})

    class _Tampered:
        """A solver whose answer is altered before it is read back."""

        def __init__(self, solution=None, status=None):
            self._highs = new_lp_solver()
            self._solution = solution
            self._status = status

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def getModelStatus(self):
            if self._status is not None:
                return self._status
            return self._highs.getModelStatus()

        def getSolution(self):
            solution = self._highs.getSolution()
            if self._solution is None:
                return solution
            col, row = self._solution(
                np.array(solution.col_value), np.array(solution.row_value)
            )
            return SimpleNamespace(col_value=list(col), row_value=list(row))

    def test_untampered_passes(self, lp):
        network, demand = lp
        pred = multicommodity_min_time(network, demand, self._Tampered())
        assert pred == multicommodity_min_time(network, demand)

    def test_capacity_violation_raises(self, lp):
        # twice the optimal flow: conservation still holds, but every
        # saturated capacity row is exceeded
        solver = self._Tampered(solution=lambda col, row: (2 * col, 2 * row))
        with pytest.raises(RuntimeError, match="tolerance"):
            multicommodity_min_time(*lp, solver)

    def test_nan_raises(self, lp):
        def poison(col, row):
            col[0] = np.nan
            return col, row

        with pytest.raises(RuntimeError, match="tolerance"):
            multicommodity_min_time(*lp, self._Tampered(solution=poison))

    def test_non_optimal_status_raises(self, lp):
        from scipy.optimize._highspy._core import HighsModelStatus

        solver = self._Tampered(status=HighsModelStatus.kInfeasible)
        with pytest.raises(RuntimeError, match="LP failed: Infeasible"):
            multicommodity_min_time(*lp, solver)


class TestQpiUtilisation:
    def test_saturated_memory_edge_is_a_bottleneck(self):
        """CPU-memory traffic crossing sockets saturates the QPI link's
        memory edge while its device edge stays idle; the link must
        report the busier edge."""
        machine = machine_a()
        topo = machine.build(classic_layouts(machine)["c"])
        demand = TrafficDemand()
        demand.add("mem1", "gpu0", 1e9)  # socket 1 memory -> socket 0 GPU
        pred = multicommodity_min_time(_network(topo, demand), demand)
        assert pred.utilisation[("rc1", "rc0")] == pytest.approx(1.0)
        assert ("rc1", "rc0") in pred.bottlenecks()
        # the linprog formulation kept only the (idle) device edge
        ref = reference_multicommodity_min_time(topo, demand)
        assert ref.utilisation[("rc1", "rc0")] == 0.0
        assert pred.scale == ref.scale


class TestSolverOwnership:
    """Each search owns its HiGHS instance: none is module-level, so
    concurrent searches cannot share one (pool workers: see
    ``test_search.py::test_workers_do_not_change_selection``)."""

    def test_no_module_level_solver(self):
        from scipy.optimize._highspy._core import _Highs

        assert not [
            name for name, value in vars(mcmf).items()
            if isinstance(value, _Highs)
        ]

    def test_concurrent_searches_match_serial(self):
        machine = machine_a()
        request = _request(machine, 2, 4)
        serial = run_search(request)
        results = [None, None]
        errors = []
        barrier = threading.Barrier(2)

        def solve(slot):
            try:
                barrier.wait()
                results[slot] = run_search(request)
            except BaseException as err:  # surfaced below
                errors.append(err)

        threads = [threading.Thread(target=solve, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for result in results:
            assert _ranking(result.scored) == _ranking(serial.scored)
            assert result.best.throughput == serial.best.throughput
