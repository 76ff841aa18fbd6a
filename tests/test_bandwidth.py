"""Tests for max-min fair sharing and progressive filling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.bandwidth import (
    FairShareResult,
    Flow,
    _path_classes,
    _WaterFill,
    max_min_rates,
    progressive_fill,
)
from tests import oracles


class TestMaxMinRates:
    def test_single_flow_gets_capacity(self):
        flows = [Flow(("l",), 100.0)]
        rates = max_min_rates(flows, {"l": 10.0})
        assert rates == [10.0]

    def test_equal_sharing(self):
        flows = [Flow(("l",), 1.0), Flow(("l",), 1.0)]
        rates = max_min_rates(flows, {"l": 10.0})
        assert rates == [5.0, 5.0]

    def test_water_filling_classic(self):
        # Flow A uses links 1+2, B uses 1, C uses 2.
        # cap1=10 shared A,B; cap2=30 shared A,C.
        # Fair: link1 bottleneck first -> A=B=5; C gets 30-5=25.
        flows = [
            Flow(("l1", "l2"), 1.0),
            Flow(("l1",), 1.0),
            Flow(("l2",), 1.0),
        ]
        rates = max_min_rates(flows, {"l1": 10.0, "l2": 30.0})
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(25.0)

    def test_local_flow_infinite(self):
        rates = max_min_rates([Flow((), 1.0)], {})
        assert rates[0] == float("inf")

    def test_unknown_resource(self):
        with pytest.raises(KeyError):
            max_min_rates([Flow(("x",), 1.0)], {"l": 1.0})

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            max_min_rates([Flow(("l",), 1.0)], {"l": 0.0})

    def test_inactive_flows_zero(self):
        flows = [Flow(("l",), 1.0), Flow(("l",), 1.0)]
        rates = max_min_rates(flows, {"l": 10.0}, active=[0])
        assert rates == [10.0, 0.0]

    def test_duplicate_resource_in_path_counted_once(self):
        flows = [Flow(("l", "l"), 1.0)]
        rates = max_min_rates(flows, {"l": 10.0})
        assert rates == [10.0]


class TestProgressiveFill:
    def test_single_flow_time(self):
        res = progressive_fill([Flow(("l",), 100.0)], {"l": 10.0})
        assert res.makespan == pytest.approx(10.0)
        assert res.finish_times == [pytest.approx(10.0)]
        assert res.resource_bytes["l"] == pytest.approx(100.0)

    def test_release_after_completion(self):
        # Two flows share a 10 B/s link; one needs 10 B, the other 30 B.
        # Phase 1: both at 5 B/s until t=2 (first finishes).
        # Phase 2: second at 10 B/s for remaining 20 B -> t=4.
        flows = [Flow(("l",), 10.0), Flow(("l",), 30.0)]
        res = progressive_fill(flows, {"l": 10.0})
        assert res.finish_times[0] == pytest.approx(2.0)
        assert res.finish_times[1] == pytest.approx(4.0)
        assert res.makespan == pytest.approx(4.0)

    def test_conservation_of_bytes(self):
        flows = [Flow(("a", "b"), 50.0), Flow(("b",), 25.0)]
        res = progressive_fill(flows, {"a": 10.0, "b": 10.0})
        assert res.resource_bytes["b"] == pytest.approx(75.0)
        assert res.resource_bytes["a"] == pytest.approx(50.0)

    def test_zero_demand_finishes_instantly(self):
        res = progressive_fill([Flow(("l",), 0.0)], {"l": 1.0})
        assert res.makespan == 0.0

    def test_local_flows_instant(self):
        res = progressive_fill([Flow((), 1e9)], {})
        assert res.makespan == 0.0

    def test_peak_rates_bounded_by_capacity(self):
        flows = [Flow(("l",), 10.0) for _ in range(5)]
        res = progressive_fill(flows, {"l": 7.0})
        assert res.peak_rates["l"] <= 7.0 + 1e-9

    def test_finish_by_tag(self):
        flows = [
            Flow(("l",), 10.0, tag="a"),
            Flow(("l",), 10.0, tag="a"),
            Flow(("m",), 1.0, tag="b"),
        ]
        res = progressive_fill(flows, {"l": 10.0, "m": 10.0})
        by_tag = res.finish_by_tag()
        assert by_tag["a"] == pytest.approx(2.0)
        assert by_tag["b"] == pytest.approx(0.1)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # path subset selector
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_properties_hold(self, spec):
        paths = [(), ("a",), ("b",), ("a", "b")]
        flows = [Flow(paths[i], d) for i, d in spec]
        caps = {"a": 10.0, "b": 5.0}
        res = progressive_fill(flows, caps)
        # 1. every flow finishes
        assert len(res.finish_times) == len(flows)
        # 2. bytes through each resource equal sum of demands routed on it
        for key, cap in caps.items():
            want = sum(f.demand for f in flows if key in f.path)
            got = res.resource_bytes.get(key, 0.0)
            assert got == pytest.approx(want, abs=1e-3)
        # 3. makespan lower bound: busiest resource's total / capacity
        lb = max(
            (
                sum(f.demand for f in flows if k in f.path) / c
                for k, c in caps.items()
            ),
            default=0.0,
        )
        assert res.makespan >= lb - 1e-6
        # 4. peak rates never exceed capacity
        for key, rate in res.peak_rates.items():
            assert rate <= caps[key] + 1e-6

    def test_makespan_matches_serial_bound(self):
        # All flows on one link: makespan must equal total/capacity
        flows = [Flow(("l",), d) for d in (5.0, 10.0, 15.0)]
        res = progressive_fill(flows, {"l": 10.0})
        assert res.makespan == pytest.approx(3.0)


# --- differential checks against the reference loop (tests/oracles.py) ---

#: Kernel vs. reference-loop agreement bound (relative).
REL = 1e-12


def _close(a, b, rel=REL):
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def _assert_same_rates(got, want, rel=REL):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _close(g, w, rel), (got, want)


def _assert_same_fill(got, want):
    assert _close(got.makespan, want.makespan)
    _assert_same_rates(got.finish_times, want.finish_times)
    for field in ("resource_bytes", "peak_rates"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.keys() == w.keys(), field
        for key in w:
            assert _close(g[key], w[key]), (field, key, g[key], w[key])
    assert got.finish_by_tag() == pytest.approx(want.finish_by_tag(), rel=REL)


@st.composite
def fair_share_instances(draw, max_flows=100, max_resources=20, extended=False):
    """Random flows over random resources, as ``(flows, capacities)``.

    Paths may repeat a resource or be empty, and demands may be zero.
    Demands stay at or below 1e9 bytes, above the largest flow the epoch
    simulator issues (~3e8 on machine A): a flow retires once its
    remaining bytes fall to 1e-6, an absolute residue that drops below
    one ulp near 1e15 bytes, where either implementation can run out of
    rounds on its own.

    ``extended`` gives one resource an ``inf`` capacity in about one
    instance in four, adds paths that repeat their first resource, and
    draws demands from a few round values too, so that several flows
    and classes retire in the same round.
    """
    n_res = draw(st.integers(1, max_resources))
    keys = [f"r{j}" if j % 2 else ("link", j) for j in range(n_res)]
    capacities = {k: draw(st.floats(1.0, 100.0)) for k in keys}
    paths = st.lists(st.sampled_from(keys), max_size=4).map(tuple)
    demands = st.one_of(st.just(0.0), st.floats(1e-3, 1e9))
    if extended:
        if draw(st.integers(0, 3)) == 0:
            capacities[draw(st.sampled_from(keys))] = float("inf")
        paths = st.one_of(paths, paths.map(lambda p: p + p[:1]))
        demands = st.one_of(demands, st.sampled_from([1.0, 2.0, 3.0, 1e6]))
    specs = draw(
        st.lists(st.tuples(paths, demands), min_size=1, max_size=max_flows)
    )
    flows = [Flow(p, d, tag=i % 3) for i, (p, d) in enumerate(specs)]
    return flows, capacities


class TestKernelMatchesOracle:
    @given(fair_share_instances(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_max_min_rates(self, instance, data):
        flows, caps = instance
        active = data.draw(
            st.one_of(
                st.none(),
                st.sets(st.integers(0, len(flows) - 1)).map(sorted),
            )
        )
        _assert_same_rates(
            max_min_rates(flows, caps, active),
            oracles.max_min_rates(flows, caps, active),
        )

    @given(fair_share_instances())
    @settings(max_examples=150, deadline=None)
    def test_progressive_fill(self, instance):
        flows, caps = instance
        _assert_same_fill(
            progressive_fill(flows, caps), oracles.progressive_fill(flows, caps)
        )

    @given(
        fair_share_instances(max_flows=12, max_resources=5),
        st.sampled_from(["drop", 0.0, -1.0, float("nan"), float("inf")]),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_errors(self, instance, fault, data):
        flows, caps = instance
        key = data.draw(st.sampled_from(sorted(caps, key=repr)))
        if fault == "drop":
            del caps[key]
        else:
            caps[key] = fault

        def raised(fn):
            try:
                fn(flows, caps)
            except (KeyError, ValueError, RuntimeError) as exc:
                return type(exc)
            return None

        for fn, ref in (
            (max_min_rates, oracles.max_min_rates),
            (progressive_fill, oracles.progressive_fill),
        ):
            assert raised(fn) is raised(ref), fn.__name__

    def test_degraded_epoch_step(self, monkeypatch):
        """A real fault step: ssd0 failed, its recovery path in use."""
        from repro.faults import FaultSchedule, recovery_key
        from repro.graphs.datasets import IGB_HOM
        from repro.hardware.machines import classic_layouts, machine_a
        from repro.runtime.spec import RunSpec
        from repro.runtime.system import MomentSystem
        from repro.simulator import pipeline

        captured = []

        def recording_fill(flows, capacities):
            captured.append((list(flows), dict(capacities)))
            return progressive_fill(flows, capacities)

        monkeypatch.setattr(pipeline, "progressive_fill", recording_fill)
        machine = machine_a()
        spec = RunSpec(
            dataset=IGB_HOM.build(scale=IGB_HOM.default_scale * 16, seed=0),
            placement=classic_layouts(machine)["c"],
            sample_batches=6,
            faults=FaultSchedule.parse("fail@2:ssd0"),
        )
        MomentSystem(machine).run(spec)
        degraded = [
            (flows, caps)
            for flows, caps in captured
            if recovery_key("ssd0") in caps
        ]
        assert degraded and len(degraded) < len(captured)
        for flows, caps in degraded:
            assert ("egress", "ssd0") not in caps
            assert any(recovery_key("ssd0") in f.path for f in flows)
            _assert_same_fill(
                progressive_fill(flows, caps), oracles.progressive_fill(flows, caps)
            )


# --- bit-exact checks against the NumPy kernel (tests/oracles.py) ---


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: every result field, or the error raised."""
    try:
        out = fn(*args)
    except (KeyError, ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    if isinstance(out, FairShareResult):
        return (
            out.makespan,
            out.finish_times,
            list(out.resource_bytes.items()),
            list(out.peak_rates.items()),
            out.finish_by_tag(),
        )
    return out


def _assert_identical(flows, caps, active=None):
    assert _outcome(max_min_rates, flows, caps, active) == _outcome(
        oracles.numpy_max_min_rates, flows, caps, active
    )
    assert _outcome(progressive_fill, flows, caps) == _outcome(
        oracles.numpy_progressive_fill, flows, caps
    )


@pytest.fixture(scope="module")
def fault_epoch_fills():
    """Every fill of a machine-A layout-c epoch in which ssd0 fails at
    step 14 and the run replans: 27 fills, the later ones over degraded
    capacities with the failed drive's recovery path."""
    from repro.faults import FaultSchedule
    from repro.graphs.datasets import IGB_HOM
    from repro.hardware.machines import classic_layouts, machine_a
    from repro.runtime.spec import RunSpec
    from repro.runtime.system import MomentSystem
    from repro.simulator import pipeline

    captured = []

    def recording_fill(flows, capacities):
        captured.append((list(flows), dict(capacities)))
        return progressive_fill(flows, capacities)

    machine = machine_a()
    spec = RunSpec(
        dataset=IGB_HOM.build(scale=IGB_HOM.default_scale * 4, seed=0),
        placement=classic_layouts(machine)["c"],
        num_gpus=4,
        num_ssds=8,
        sample_batches=40,
        faults=FaultSchedule.parse("ssd_failure@14:ssd0"),
        replan=True,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "progressive_fill", recording_fill)
        MomentSystem(machine, seed=0).run(spec)
    return captured


class TestKernelEqualsNumpyKernel:
    """The scalar kernel equals the NumPy one under ``==``, errors included."""

    @given(fair_share_instances(extended=True), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_instances(self, instance, data):
        flows, caps = instance
        active = data.draw(
            st.one_of(
                st.none(),
                st.sets(st.integers(0, len(flows) - 1)).map(sorted),
            )
        )
        _assert_identical(flows, caps, active)

    @given(fair_share_instances(extended=True), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_resumed_levels(self, instance, rnd):
        """Retiring flows class by class, each resumed fill equals a
        fresh NumPy fill; ``inf`` capacities reach the kernel here."""
        flows, caps = instance
        index = {key: r for r, key in enumerate(caps)}
        routed = [i for i, f in enumerate(flows) if f.path]
        class_of, incidence = _path_classes(flows, index, routed)
        capacity = np.array(list(caps.values()))
        counts = np.bincount(class_of[routed], minlength=incidence.shape[1])
        fill = _WaterFill(incidence, capacity)
        got = fill.fill(counts.tolist())
        while True:
            want = oracles.numpy_water_fill(incidence, capacity, counts)
            assert got == want.tolist()
            live = np.flatnonzero(counts).tolist()
            if not live:
                break
            retired = {}
            for c in rnd.sample(live, rnd.randint(1, len(live))):
                retired[c] = rnd.randint(1, int(counts[c]))
                counts[c] -= retired[c]
            got = fill.retire(retired)

    def test_fault_epoch_fills(self, fault_epoch_fills):
        from repro.faults import recovery_key

        assert len(fault_epoch_fills) == 27
        assert any(recovery_key("ssd0") in caps for _, caps in fault_epoch_fills)
        for flows, caps in fault_epoch_fills:
            _assert_identical(flows, caps)

    @pytest.mark.parametrize(
        "flows, caps, error",
        [
            pytest.param([Flow(("x",), 1.0)], {"l": 1.0}, "unknown resource"),
            pytest.param([Flow(("l",), 1.0)], {"l": 0.0}, "positive finite"),
            pytest.param([Flow(("l",), 1.0)], {"l": -1.0}, "positive finite"),
            pytest.param([Flow(("l",), 1.0)], {"l": float("inf")}, "positive finite"),
            # 5e-324 / 3 rounds to a zero share
            pytest.param([Flow(("l",), 1.0)] * 3, {"l": 5e-324}, "starved"),
            # near 1e17 bytes the 1e-6-byte retirement residue is below
            # one ulp, so these two flows outlast the n + 1 round cap
            pytest.param(
                [
                    Flow(("a",), 1.0000000000000586e17),
                    Flow(("b",), 4.0000000000000186e17),
                ],
                {"a": 2.7, "b": 7.0},
                "failed to converge",
            ),
        ],
    )
    def test_same_errors(self, flows, caps, error):
        _assert_identical(flows, caps)
        assert error in _outcome(progressive_fill, flows, caps)[1]


def _lex_max_min(flows, capacities):
    """Lexicographic max-min fair rates by a sequence of HiGHS LPs.

    Each level maximizes the smallest rate not yet fixed, subject to the
    capacities and the rates already fixed; every flow that cannot then
    exceed that level is fixed at it.  Independent of water-filling, so
    it proves fairness rather than agreement with another filler.
    """
    from scipy.optimize import linprog

    routed = [i for i, f in enumerate(flows) if f.path]
    keys = list(capacities)
    a_cap = np.array(
        [[1.0 if k in flows[i].path else 0.0 for i in routed] for k in keys]
    )
    b_cap = np.array([capacities[k] for k in keys])
    m = len(routed)
    fixed = {}

    def solve(objective, floor):
        # variables: the m rates, then the level t; rates >= t if unfixed
        a_floor = np.zeros((m, m + 1))
        for j in range(m):
            if j not in fixed:
                a_floor[j, j], a_floor[j, m] = -1.0, 1.0
        bounds = [(fixed[j], fixed[j]) if j in fixed else (0, None) for j in range(m)]
        res = linprog(
            -objective,
            A_ub=np.vstack([np.hstack([a_cap, np.zeros((len(keys), 1))]), a_floor]),
            b_ub=np.concatenate([b_cap, np.zeros(m)]),
            bounds=bounds + [floor],
            method="highs",
        )
        assert res.status == 0, res.message
        return res.x

    while len(fixed) < m:
        level = solve(np.eye(m + 1)[m], (0, None))[m]
        for j in [j for j in range(m) if j not in fixed]:
            best = solve(np.eye(m + 1)[j], (level, level))[j]
            if best <= level * (1 + 1e-9):
                fixed[j] = level
    rates = [float("inf")] * len(flows)
    for j, i in enumerate(routed):
        rates[i] = fixed[j]
    return rates


class TestFairness:
    @given(fair_share_instances(max_flows=6, max_resources=4))
    @settings(max_examples=60, deadline=None)
    def test_rates_are_lexicographic_max_min(self, instance):
        flows, caps = instance
        _assert_same_rates(
            max_min_rates(flows, caps), _lex_max_min(flows, caps), rel=1e-9
        )
