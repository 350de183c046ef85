import math
from dataclasses import replace

import numpy as np
import pytest

from evroute import (
    BnBConfig,
    EventNode,
    GenConfig,
    Instance,
    NodeKind,
    SolveStatus,
    Weights,
    bfd_initial,
    generate,
    linearize,
    oracle,
    solve_completion,
    solve_exact,
    validate,
)
from evroute.errors import InstanceTooLargeError
from evroute.exact import ORACLE_MAX_NODES

from conftest import SEED42_ORACLE_OBJECTIVE, SEED42_ORACLE_ORDER, option, wide_node


class TestOracle:
    def test_three_node_hand_arithmetic(self):
        # start -> one chargeable event -> end, distance objective off,
        # end-range objective on; charging beats driving on arithmetic:
        # uncharged end range 50-10-20=20, charged 50+40-10-20=60 at the
        # price of one epsilon stop.
        nodes = (
            wide_node(0, NodeKind.START),
            wide_node(1, NodeKind.FLEXIBLE, duration=30.0, charging=option(walk_time=2.0, max_gain=40.0)),
            wide_node(2, NodeKind.END),
        )
        dist = np.array([[0.0, 10.0, 25.0], [10.0, 0.0, 20.0], [25.0, 20.0, 0.0]])
        inst = Instance(
            nodes=nodes, dist=dist, travel=dist, k_min=0.0, k_max=100.0, k_start=50.0,
            weights=Weights(0.0, 0.0, 1.0), epsilon=0.001,
        )
        best = oracle(inst)
        assert best.order == (0, 1, 2)
        assert best.charge == (0, 1, 0)
        # a_0 = 0, so only the stop epsilon enters
        assert best.objective == pytest.approx(-60.0 + 0.001, abs=1e-12)

    def test_single_event_single_order(self):
        nodes = (
            wide_node(0, NodeKind.START),
            wide_node(1, NodeKind.FLEXIBLE, duration=15.0),
            wide_node(2, NodeKind.END),
        )
        dist = np.array([[0.0, 3.0, 9.0], [3.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
        inst = Instance(nodes=nodes, dist=dist, travel=dist, k_min=0.0, k_max=50.0, k_start=50.0,
                        weights=Weights(1.0, 0.0, 0.0), epsilon=0.0)
        best = oracle(inst)
        assert best.order == (0, 1, 2)
        assert best.objective == pytest.approx(7.0)

    def test_contradictory_fixed_windows_infeasible(self):
        nodes = (
            wide_node(0, NodeKind.START),
            EventNode(1, NodeKind.FIXED, a_min=100.0, a_max=160.0, duration=60.0, fixed_arrival=100.0),
            EventNode(2, NodeKind.FIXED, a_min=120.0, a_max=180.0, duration=60.0, fixed_arrival=120.0),
            wide_node(3, NodeKind.END),
        )
        dist = np.zeros((4, 4))
        inst = Instance(nodes=nodes, dist=dist, travel=dist, k_min=0.0, k_max=10.0, k_start=10.0)
        assert oracle(inst) is None

    def test_size_guard(self):
        inst = generate(GenConfig(seed=4, event_count=8, max_days=1))
        assert inst.n == 11
        with pytest.raises(InstanceTooLargeError):
            oracle(inst)

    def test_seed42_regression(self, seed42):
        best = oracle(seed42)
        assert best.order == SEED42_ORACLE_ORDER
        assert best.objective == pytest.approx(SEED42_ORACLE_OBJECTIVE, abs=1e-12)


class TestSolveExact:
    def test_matches_oracle_on_twenty_small_instances(self):
        for seed in range(1, 21):
            inst = generate(GenConfig(seed=seed, event_count=3 + seed % 3, max_days=1))
            best = oracle(inst)
            res = solve_exact(inst)
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(best.objective, abs=1e-9)
            assert validate(res.schedule, inst) == []

    def test_time_limit_returns_incumbent(self):
        inst = generate(GenConfig(seed=0, event_count=30, max_days=4))
        res = solve_exact(inst, BnBConfig(time_limit=0.001))
        assert res.status is SolveStatus.TIME_LIMIT
        assert res.schedule is not None  # at least the construction seed
        assert validate(res.schedule, inst) == []

    def test_infeasible_status(self):
        nodes = (
            wide_node(0, NodeKind.START),
            EventNode(1, NodeKind.FIXED, a_min=100.0, a_max=160.0, duration=60.0, fixed_arrival=100.0),
            EventNode(2, NodeKind.FIXED, a_min=120.0, a_max=180.0, duration=60.0, fixed_arrival=120.0),
            wide_node(3, NodeKind.END),
        )
        dist = np.zeros((4, 4))
        inst = Instance(nodes=nodes, dist=dist, travel=dist, k_min=0.0, k_max=10.0, k_start=10.0)
        res = solve_exact(inst)
        assert res.status is SolveStatus.INFEASIBLE
        assert res.schedule is None

    def test_incumbent_objective_non_increasing(self):
        inst = generate(GenConfig(seed=11, event_count=6, max_days=1))
        res = solve_exact(inst)
        objs = [obj for _, obj in res.incumbents]
        assert objs == sorted(objs, reverse=True)

    def test_pruning_soundness(self):
        # every cut is live; the exhaustive oracle is the unpruned reference
        for seed in range(1, 9):
            inst = generate(GenConfig(seed=seed, event_count=2 + seed % 3, max_days=1))
            assert inst.n <= ORACLE_MAX_NODES
            res = solve_exact(inst)
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(oracle(inst).objective, abs=1e-12)

    @pytest.mark.parametrize("limit", [math.nan, 0.0, -1.0])
    def test_time_limit_must_be_positive(self, limit):
        # a NaN limit would set a deadline that is never reached
        with pytest.raises(ValueError, match="time_limit"):
            BnBConfig(time_limit=limit)

    def test_greedy_leaves_report_heuristic_leaf(self):
        # a charger at every node: too many charge sets to enumerate per leaf
        inst = generate(GenConfig(seed=2, event_count=12, max_days=2, station_probability=1.0))
        res = solve_exact(inst)
        assert res.status is SolveStatus.HEURISTIC_LEAF
        assert validate(res.schedule, inst) == []


class TestSolveCompletion:
    def test_base_and_removed_must_hold_every_node_once(self, seed42):
        order = bfd_initial(seed42).order
        flexible = [u for u in order if seed42.nodes[u].kind is NodeKind.FLEXIBLE]
        base = [u for u in order if u not in flexible[:2]]
        with pytest.raises(ValueError, match="miss"):
            solve_completion(seed42, base, flexible[:1])
        with pytest.raises(ValueError, match="overlap"):
            solve_completion(seed42, order, flexible[:1])
        assert solve_completion(seed42, base, flexible[:2]) is not None

    def test_reinsertion_recovers_optimal_order(self, seed42):
        best = oracle(seed42)
        removed = [u for u in best.order[1:-1] if seed42.nodes[u].kind is NodeKind.FLEXIBLE][:2]
        base = [u for u in best.order if u not in set(removed)]
        sched = solve_completion(seed42, base, removed)
        assert sched is not None
        assert validate(sched, seed42) == []
        # the search space contains the optimal order itself, priced by the
        # same planner pipeline used for repairs
        from evroute import assemble_schedule

        assert sched.objective <= assemble_schedule(best.order, seed42).objective + 1e-9


class TestLinearize:
    def test_two_node_model_structure(self):
        nodes = (wide_node(0, NodeKind.START), wide_node(1, NodeKind.END))
        dist = np.array([[0.0, 10.0], [10.0, 0.0]])
        inst = Instance(nodes=nodes, dist=dist, travel=dist, k_min=0.0, k_max=50.0, k_start=50.0)
        model = linearize(inst)
        names = {name for name, *_ in model.variables}
        assert {"x_0_1", "x_1_0"} <= names
        rows = {r.name: r for r in model.rows}
        # both flow rows per node; the end node's outgoing sum pins x_1_0
        assert rows["flow_out_0"].coeffs == {"x_0_1": 1.0} and rows["flow_out_0"].rhs == 1.0
        assert rows["flow_out_1"].coeffs == {"x_1_0": 1.0} and rows["flow_out_1"].rhs == 0.0
        assert rows["flow_in_0"].rhs == 0.0 and rows["flow_in_1"].rhs == 1.0
        usable = [v for v in ("x_0_1", "x_1_0") if rows[f"flow_out_{v[2]}"].rhs > 0]
        assert usable == ["x_0_1"]

    def test_coefficients_within_sanity_bound(self, seed42):
        model = linearize(seed42)
        cap = model.m_time + model.m_range
        for row in model.rows:
            for coef in row.coeffs.values():
                assert abs(coef) <= cap + 1e-9

    def test_pure_function_of_instance(self, seed42):
        assert linearize(seed42).to_text() == linearize(seed42).to_text()

    def test_milp_cross_check_reproduces_oracle(self):
        # feed the emitted model to an external MIP solver (HiGHS via scipy)
        from scipy import optimize, sparse

        inst = generate(GenConfig(seed=6, event_count=2, max_days=1))
        # with the day-length weight below epsilon the model's optimum and
        # the earliest-start policy coincide; pin epsilon above wt
        inst = replace(inst, epsilon=0.01)
        assert inst.weights.wt <= inst.epsilon
        best = oracle(inst)
        model = linearize(inst)
        idx = {name: i for i, (name, *_ ) in enumerate(model.variables)}
        nvars = len(idx)
        c = np.zeros(nvars)
        for name, coef in model.objective[0].items():
            c[idx[name]] = coef
        integrality = np.zeros(nvars)
        lb = np.full(nvars, -np.inf)
        ub = np.full(nvars, np.inf)
        for name, kind, lo, hi in model.variables:
            i = idx[name]
            if kind == "binary":
                integrality[i] = 1
                lb[i], ub[i] = 0.0, 1.0
            else:
                lb[i] = -np.inf if lo is None else lo
                ub[i] = np.inf if hi is None else hi
        rows_a, lo_b, hi_b = [], [], []
        for row in model.rows:
            vec = np.zeros(nvars)
            for name, coef in row.coeffs.items():
                vec[idx[name]] = coef
            rows_a.append(vec)
            if row.sense == "<=":
                lo_b.append(-np.inf)
                hi_b.append(row.rhs)
            elif row.sense == ">=":
                lo_b.append(row.rhs)
                hi_b.append(np.inf)
            else:
                lo_b.append(row.rhs)
                hi_b.append(row.rhs)
        res = optimize.milp(
            c=c,
            constraints=optimize.LinearConstraint(sparse.csr_matrix(np.vstack(rows_a)), lo_b, hi_b),
            integrality=integrality,
            bounds=optimize.Bounds(lb, ub),
        )
        assert res.success
        assert res.fun + model.objective[1] == pytest.approx(best.objective, abs=1e-6)
