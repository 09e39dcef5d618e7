"""Power-flow solver tests against independent nonlinear oracles."""

import copy
import pickle
import re
import tempfile
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from droopsched.droop import PV, CapabilitySet, DerUnit
from droopsched.network import (
    Branch,
    NetworkDataError,
    NetworkModel,
    PowerFlowError,
    PowerFlowSolution,
    solve_power_flow,
)
from droopsched.scenarios import ieee37_shaped_feeder, load_network, six_bus_feeder
from droopsched.scheduler import SchedulerConfig, SchedulerState

from .oracles import dfs_plan, distflow_residual, distflow_root

# (id, whether it is a bus id): Python and numpy integers of every width
# naming bus 1, 2 or 3, then bools, numpy bools, floats, strings and None
NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
BUS_IDS = st.one_of(
    st.integers(1, 3).map(lambda v: (v, True)),
    st.tuples(st.sampled_from(NUMPY_INTS), st.integers(1, 3)).map(lambda tv: (tv[0](tv[1]), True)),
    st.booleans().map(lambda b: (b, False)),
    st.booleans().map(lambda b: (np.bool_(b), False)),
    st.sampled_from([3.0, float("nan"), np.float64(2.0)]).map(lambda f: (f, False)),
    st.floats().map(lambda f: (f, False)),
    st.integers(1, 3).map(lambda v: (str(v), False)),
    st.text(max_size=3).map(lambda t: (t, False)),
    st.none().map(lambda n: (n, False)),
)

# Exact single-branch solution (r=x=0.01, v_sub=1), computed beforehand with
# a 50-digit scalar fixed point on the branch current equation.
TWO_BUS_LOAD_V1 = 0.9989984964893390
TWO_BUS_LOAD_PCC = 0.1001002006020072
TWO_BUS_GEN_V1 = 1.0009985034894107
TWO_BUS_GEN_PCC = -0.0999001994019928


def two_bus(r=0.01, x=0.01):
    return NetworkModel(branches=[Branch(0, 1, r, x)])


def chain(rs, xs):
    n = len(rs)
    return NetworkModel(branches=[Branch(i, i + 1, rs[i], xs[i]) for i in range(n)])


def random_feeder(rng, n_bus):
    """Random radial feeder: each bus attaches to a random earlier bus."""
    branches = []
    for j in range(1, n_bus + 1):
        parent = int(rng.integers(0, j))
        branches.append(Branch(parent, j, float(rng.uniform(0.005, 0.05)), float(rng.uniform(0.005, 0.05))))
    return NetworkModel(branches=branches)


def model_of(rows):
    """Feeder from (frm, to, r, x) rows, validated and oriented at construction."""
    return NetworkModel(branches=[Branch(*row) for row in rows])


@st.composite
def radial_cases(draw, max_n=40):
    """Random, chain or star feeder as rows in random order, some child-first.

    Injections are scaled by 1/n so every drawn operating point is feasible.
    """
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(["random", "chain", "star"]))
    if shape == "random":
        parents = [draw(st.integers(0, j - 1)) for j in range(1, n + 1)]
    else:
        parents = list(range(n)) if shape == "chain" else [0] * n
    impedance = st.floats(1e-3, 1e-2)
    rows = []
    for j in draw(st.permutations(range(1, n + 1))):
        ends = (parents[j - 1], j)
        if draw(st.booleans()):
            ends = ends[::-1]
        rows.append((*ends, draw(impedance), draw(impedance)))
    power = st.lists(st.floats(-0.2 / n, 0.2 / n), min_size=n, max_size=n)
    return rows, np.array(draw(power)), np.array(draw(power))


class TestValidateRadial:
    def test_single_branch_orders(self):
        model = two_bus()
        assert model.plan().bus.tolist() == [0]

    def test_triangle_is_cycle(self):
        with pytest.raises(NetworkDataError, match="cycle detected"):
            NetworkModel(
                branches=[Branch(0, 1, 0.01, 0.01), Branch(1, 2, 0.01, 0.01), Branch(2, 0, 0.01, 0.01)],
            )

    def test_star_backward_visits_leaves_first(self):
        model = NetworkModel(
            branches=[Branch(0, 1, 0.01, 0.01), Branch(1, 2, 0.01, 0.01), Branch(1, 3, 0.01, 0.01)],
        )
        # leaves-to-root is the preorder reversed; bus row j is the branch feeding bus j + 1
        backward = model.plan().bus.tolist()[::-1]
        assert backward.index(1) < backward.index(0)
        assert backward.index(2) < backward.index(0)

    def test_preorder_depends_on_the_tree_alone(self):
        # the substation's neighbours are buses 2 and 3; stacked in id order,
        # bus 3 and its subtree {1} are visited first, then bus 2 and {4}.
        # Any order or orientation of the rows gives this one plan
        rows = [(0, 3, 0.01, 0.02), (3, 1, 0.02, 0.01), (0, 2, 0.03, 0.01), (2, 4, 0.01, 0.03)]
        for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
            for flip in (False, True):
                table = [(rows[e][1], rows[e][0], *rows[e][2:]) if flip else rows[e] for e in perm]
                plan = model_of(table).plan()
                assert plan.bus.tolist() == [2, 0, 1, 3]
                assert plan.pos.tolist() == [1, 2, 0, 3]
                assert plan.par.tolist() == [0, 1, 0, 3]
                assert plan.end.tolist() == [2, 2, 4, 4]

    @settings(max_examples=40, deadline=None)
    @given(radial_cases())
    def test_plan_is_the_tree_in_preorder_by_receiving_bus(self, case):
        """bus and pos are inverse permutations, each branch follows the one
        feeding its sending bus, and each subtree is the range k:end[k]."""
        model = model_of(case[0])
        plan, n = model.plan(), model.n
        assert np.array_equal(np.sort(plan.bus), np.arange(n))
        assert np.array_equal(plan.pos[plan.bus], np.arange(n))
        size = np.ones(n, dtype=int)
        for k in range(n - 1, -1, -1):
            branch = model.branches[plan.bus[k]]
            assert branch.to == plan.bus[k] + 1
            expected_par = 0 if branch.frm == 0 else plan.pos[branch.frm - 1] + 1
            assert plan.par[k] == expected_par <= k
            if branch.frm:
                size[branch.frm - 1] += size[branch.to - 1]
        assert np.array_equal(plan.end - np.arange(n), size[plan.bus])

    @settings(max_examples=60, deadline=None)
    @given(radial_cases(), st.booleans())
    def test_plan_matches_the_recursive_search_oracle(self, case, reverse):
        """The walk's preorder, parents, subtree ends, root branches and rows
        are those of a recursive search entering children highest id first,
        for rows in any order, and reversed."""
        rows = case[0][::-1] if reverse else case[0]
        bus, pos, par, end, root, branches = dfs_plan(rows)
        model = model_of(rows)
        plan = model.plan()
        assert plan.bus.tolist() == bus
        assert plan.pos.tolist() == pos
        assert plan.par.tolist() == par
        assert plan.end.tolist() == end
        assert plan.root.tolist() == root
        assert model.branches == tuple(Branch(*row) for row in branches)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # one row with every fault: its ids are checked first, then its
            # ends, then its impedance, then whether it repeats a branch
            ([(0, 1, 0.01, 0.01), (1.0, 9, -1.0, 0.0)], r"branch \(1\.0,9\) needs integer bus ids"),
            ([(0, 1, 0.01, 0.01), (1, 9, -1.0, 0.0)], r"branch \(1,9\) references unknown bus"),
            ([(0, 1, 0.01, 0.01), (1, 0, -1.0, 0.0)], r"branch \(1,0\) needs finite r,x >= 0, not both zero"),
            ([(0, 1, 0.01, 0.01), (1, 0, 0.01, 0.0)], r"duplicate branch \(0, 1\)"),
            # several faulty rows: the first in row order is named, whatever its fault
            ([(0, 1, 0.01, 0.01), (1, 2, 0.0, 0.0), (0, 7, 0.01, 0.01), (True, 3, 0.01, 0.01)],
             r"branch \(1,2\) needs finite r,x >= 0, not both zero"),
            ([(0, 1, 0.01, 0.01), (True, 3, 0.01, 0.01), (0, 7, 0.01, 0.01), (1, 2, 0.0, 0.0)],
             r"branch \(True,3\) needs integer bus ids"),
            ([(0, 1, 0.01, 0.01), (0, 7, 0.01, 0.01), (1, 2, 0.0, 0.0), (True, 3, 0.01, 0.01)],
             r"branch \(0,7\) references unknown bus"),
            # a faulty row is named before the tree is walked: the cycle 0-1-2 is not
            ([(0, 1, 0.01, 0.01), (1, 2, 0.01, 0.01), (2, 0, 0.01, 0.01), (0, 3, np.nan, 0.01)],
             r"branch \(0,3\) needs finite r,x >= 0, not both zero"),
            ([(0, 1, 0.01, 0.01), (1, 2, 0.01, 0.01), (2, 0, 0.01, 0.01), (0, 3, 0.01, 0.01)],
             r"cycle detected or disconnected node 4"),
        ],
    )
    def test_the_first_faulty_row_is_named(self, rows, message):
        for table in (rows, [Branch(*row) for row in rows]):
            with pytest.raises(NetworkDataError, match=f"^{message}$"):
                NetworkModel(table)

    def test_disconnected(self):
        # an isolated substation beside a triangle over buses 1..3
        with pytest.raises(NetworkDataError, match="^cycle detected or disconnected node 1$"):
            NetworkModel(
                branches=[Branch(1, 2, 0.01, 0.01), Branch(2, 3, 0.01, 0.01), Branch(3, 1, 0.01, 0.01)],
            )

    def test_bus_beyond_the_branch_count_is_unknown(self):
        # two branches fix buses 0..2, so the old disconnected case names bus 3
        with pytest.raises(NetworkDataError, match=r"^branch \(2,3\) references unknown bus$"):
            NetworkModel(branches=[Branch(0, 1, 0.01, 0.01), Branch(2, 3, 0.01, 0.01)])

    def test_duplicate_branch(self):
        with pytest.raises(NetworkDataError, match="duplicate branch"):
            NetworkModel(branches=[Branch(0, 1, 0.01, 0.01), Branch(1, 0, 0.02, 0.02)])

    def test_child_first_rows_are_reoriented(self):
        model = NetworkModel(branches=[Branch(1, 0, 0.01, 0.01), Branch(2, 1, 0.01, 0.01)])
        assert model.branches == (Branch(0, 1, 0.01, 0.01), Branch(1, 2, 0.01, 0.01))

    def test_plain_tuple_rows_become_branches(self):
        # a child-first tuple used to die on its reorientation with AttributeError
        model = NetworkModel([(0, 1, 0.01, 0.02), (2, 1, 0.03, 0.04)])
        assert model.branches == (Branch(0, 1, 0.01, 0.02), Branch(1, 2, 0.03, 0.04))
        assert all(type(b) is Branch for b in model.branches)
        assert model.branches[1].frm == 1
        p, q = np.array([-0.1, 0.02]), np.array([-0.02, 0.01])
        assert_same_solution(solve_power_flow(model, p, q), solve_power_flow(NetworkModel(model.branches), p, q))

    @pytest.mark.parametrize("bad", [1.0, True, np.True_, "1"], ids=["float", "bool", "numpy-bool", "str"])
    def test_rejects_a_bus_id_that_is_not_an_integer(self, bad):
        # 1.0 and True used to pass as bus 1: they hash and compare like it
        with pytest.raises(NetworkDataError, match=rf"^branch \(0,{bad}\) needs integer bus ids$"):
            NetworkModel([Branch(0, 1, 0.01, 0.01), Branch(0, bad, 0.02, 0.02)])
        with pytest.raises(NetworkDataError, match=rf"^branch \({bad},2\) needs integer bus ids$"):
            NetworkModel([Branch(0, 1, 0.01, 0.01), Branch(bad, 2, 0.02, 0.02)])

    def test_numpy_integer_bus_ids_are_accepted(self):
        rows = [(0, 1, 0.01, 0.02), (1, 2, 0.03, 0.04), (1, 3, 0.02, 0.01)]
        ids = [Branch(np.int64(frm), np.int32(to), r, x) for frm, to, r, x in rows]
        model = NetworkModel(ids)
        assert model.branches == tuple(Branch(*row) for row in rows)
        p, q = np.array([-0.1, 0.02, -0.05]), np.array([-0.02, 0.01, 0.0])
        assert_same_solution(solve_power_flow(model, p, q), solve_power_flow(model_of(rows), p, q))

    @settings(max_examples=200, deadline=None)
    @given(BUS_IDS)
    def test_one_bus_id_rule_for_branches_units_and_scheduler_states(self, case):
        # the rule has one owner, network._is_bus_id: a feeder's branch ends,
        # DerUnit.node and the nodes a scheduler state installs accept the
        # same ids, and each refuses the others by its own named error.
        # DerUnit used to die on "3" and None with a bare TypeError.
        bus, is_id = case
        slot = int(bus) if is_id else 3  # an id names bus 1, 2 or 3 of a 3-bus star
        rows = [Branch(0, bus if k == slot else k, 0.01 * k, 0.02) for k in (1, 2, 3)]
        cap = CapabilitySet(kind=PV, s_max=0.5, pf_min=0.9)
        cfg = SchedulerConfig(cost_w_f=1.0)
        if is_id:
            assert NetworkModel(rows).branches[slot - 1] == Branch(0, slot, 0.01 * slot, 0.02)
            assert DerUnit(node=bus, cap=cap).node == bus
            assert SchedulerState.initial([bus], 3, cfg).der_nodes == (bus,)
            return
        shown = re.escape(repr(bus))
        with pytest.raises(NetworkDataError, match=rf"^branch \(0,{re.escape(str(bus))}\) needs integer bus ids$"):
            NetworkModel(rows)
        with pytest.raises(ValueError, match=rf"^node must be an integer bus, got {shown}$"):
            DerUnit(node=bus, cap=cap)
        with pytest.raises(ValueError, match=rf"^DER node {shown} is not a bus of the feeder \(1\.\.3\)$"):
            SchedulerState.initial([bus], 3, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["r", "x"])
    def test_rejects_impedance_that_is_not_finite(self, which, bad):
        with pytest.raises(NetworkDataError, match=r"needs finite r,x >= 0"):
            two_bus(**{which: bad})

    def test_rejects_feeder_with_only_the_substation(self):
        with pytest.raises(NetworkDataError, match="at least one bus besides the substation"):
            NetworkModel(branches=[])


def assert_same_solution(sol, ref):
    for f in fields(PowerFlowSolution):
        assert np.array_equal(getattr(sol, f.name), getattr(ref, f.name)), f.name


class TestImmutableFeeder:
    def test_mutation_after_a_solve_raises(self):
        model = chain([0.01, 0.02], [0.02, 0.01])
        p, q = np.array([-0.1, -0.05]), np.array([-0.02, 0.01])
        sol = solve_power_flow(model, p, q)
        with pytest.raises(TypeError):
            model.branches[0] = Branch(0, 1, 0.1, 0.2)
        with pytest.raises(AttributeError):
            model.branches[0].r = 0.1
        with pytest.raises(TypeError):
            model.buses[1] = 5
        # the derived bus range is no field, and is refused like one
        with pytest.raises(FrozenInstanceError):
            model.buses = range(5)
        with pytest.raises(FrozenInstanceError):
            model.v_sub = 1.02
        with pytest.raises(FrozenInstanceError):
            model.branches = ()
        assert_same_solution(solve_power_flow(model, p, q), sol)

    def test_caller_rows_are_left_as_given(self):
        child_first = Branch(1, 0, 0.01, 0.02)
        rows = [child_first, Branch(1, 2, 0.03, 0.04)]
        model = NetworkModel(branches=rows)
        assert child_first == (1, 0, 0.01, 0.02)
        assert rows == [child_first, Branch(1, 2, 0.03, 0.04)]
        assert model.branches == (Branch(0, 1, 0.01, 0.02), rows[1])
        # the model holds its own tuple, not the caller's list
        rows[1] = Branch(1, 2, 0.5, 0.5)
        assert model.branches[1] == Branch(1, 2, 0.03, 0.04)

    def test_replace_builds_a_fresh_feeder(self):
        rows = [(0, 1, 0.01, 0.02), (1, 2, 0.02, 0.01), (1, 3, 0.03, 0.02)]
        model = model_of(rows)
        p, q = np.array([-0.1, -0.05, 0.02]), np.array([-0.02, 0.01, 0.0])
        solve_power_flow(model, p, q)
        fresh = NetworkModel(branches=[Branch(*row) for row in rows], v_sub=1.02)
        assert_same_solution(solve_power_flow(replace(model, v_sub=1.02), p, q), solve_power_flow(fresh, p, q))
        scaled = [(frm, to, 10.0 * r, x) for frm, to, r, x in rows]
        changed = replace(model, branches=[Branch(*row) for row in scaled])
        assert_same_solution(solve_power_flow(changed, p, q), solve_power_flow(model_of(scaled), p, q))
        assert np.array_equal(changed.plan().rxz[:2], model_of(scaled).plan().rxz[:2])
        with pytest.raises(NetworkDataError, match="^v_sub must be finite and positive$"):
            replace(model, v_sub=np.nan)
        with pytest.raises(NetworkDataError, match=r"needs finite r,x >= 0"):
            replace(model, branches=[Branch(0, 1, np.nan, 0.02), *model.branches[1:]])

    def test_plan_impedances_are_read_only(self):
        plan = six_bus_feeder().plan()
        for rows in (plan.rxz, plan.rxz[:2], plan.rx2):
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1.0
        with pytest.raises(FrozenInstanceError):
            plan.rxz = np.zeros((3, 6))

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"]
    )
    def test_copies_are_rebuilt_with_a_read_only_plan(self, clone):
        model = replace(six_bus_feeder(), v_sub=1.02)
        twin = clone(model)
        assert twin == model and twin is not model
        plan = twin.plan()
        for rows in (plan.rxz, plan.rxz[:2], plan.rx2):
            assert not rows.flags.writeable
        p, q = np.linspace(-0.1, 0.05, model.n), np.linspace(0.02, -0.03, model.n)
        assert_same_solution(solve_power_flow(twin, p, q), solve_power_flow(model, p, q))

    @settings(max_examples=50, deadline=None)
    @given(radial_cases())
    def test_the_branch_table_is_the_whole_feeder(self, case):
        """Copies, replace and a written-out branch table give an equal feeder that solves bit for bit."""
        rows, p, q = case
        model = model_of(rows)
        assert model.buses == range(len(rows) + 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.csv"
            path.write_text("from,to,r_pu,x_pu\n" + "".join(f"{frm},{to},{r!r},{x!r}\n" for frm, to, r, x in rows))
            loaded = load_network(path)
        sol = solve_power_flow(model, p, q)
        for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model), replace(model), loaded):
            assert twin == model and twin.buses == model.buses
            assert_same_solution(solve_power_flow(twin, p, q), sol)

    @settings(max_examples=100, deadline=None)
    @given(radial_cases())
    def test_child_first_rows_solve_bit_identically(self, case):
        rows, p, q = case
        # every drawn parent has a smaller id than its child
        parent_first = [(min(frm, to), max(frm, to), r, x) for frm, to, r, x in rows]
        model, oriented = model_of(rows), model_of(parent_first)
        # rows are stored by receiving bus, whatever order they came in
        by_bus = sorted(parent_first, key=lambda row: row[1])
        assert model.branches == oriented.branches == tuple(Branch(*row) for row in by_bus)
        cold = solve_power_flow(model, p, q)
        assert_same_solution(cold, solve_power_flow(oriented, p, q))
        assert_same_solution(
            solve_power_flow(model, -p, q, warm=cold), solve_power_flow(oriented, -p, q, warm=cold)
        )


class TestSolvePowerFlow:
    def test_zero_injection_flat(self):
        model = chain([0.01, 0.02, 0.03], [0.01, 0.02, 0.03])
        sol = solve_power_flow(model, np.zeros(3), np.zeros(3))
        assert np.allclose(sol.v, 1.0)
        assert np.allclose(sol.p_flow, 0.0)
        assert sol.p_pcc == 0.0

    def test_two_bus_load_matches_scalar_oracle(self):
        sol = solve_power_flow(two_bus(), np.array([-0.10]), np.array([0.0]), tol=1e-13)
        assert sol.v[1] == pytest.approx(TWO_BUS_LOAD_V1, abs=1e-12)
        assert sol.p_pcc == pytest.approx(TWO_BUS_LOAD_PCC, abs=1e-12)

    def test_two_bus_generation_raises_voltage_and_exports(self):
        sol = solve_power_flow(two_bus(), np.array([0.10]), np.array([0.0]), tol=1e-13)
        assert sol.v[1] > 1.0
        assert sol.p_pcc < 0.0
        assert sol.v[1] == pytest.approx(TWO_BUS_GEN_V1, abs=1e-12)
        assert sol.p_pcc == pytest.approx(TWO_BUS_GEN_PCC, abs=1e-12)

    def test_agrees_with_root_finder_on_random_feeders(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            model = random_feeder(rng, n)
            p = rng.uniform(-0.2, 0.2, n)
            q = rng.uniform(-0.1, 0.1, n)
            sol = solve_power_flow(model, p, q)
            v_ref, pcc_ref = distflow_root(model, p, q)
            assert np.max(np.abs(sol.v - v_ref)) < 1e-8
            assert sol.p_pcc == pytest.approx(pcc_ref, abs=1e-8)

    def test_energy_conservation(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            model = random_feeder(rng, n)
            p = rng.uniform(-0.2, 0.1, n)
            q = rng.uniform(-0.1, 0.1, n)
            tol = 1e-8
            sol = solve_power_flow(model, p, q, tol=tol)
            losses = float(np.sum([b.r for b in model.branches] * sol.i_sq))
            assert abs(sol.p_pcc - (-p.sum() + losses)) <= 10 * tol
            assert np.all(sol.i_sq >= 0.0)

    def test_warm_start_idempotent(self):
        model = chain([0.02, 0.02], [0.02, 0.02])
        p = np.array([-0.1, -0.05])
        q = np.array([-0.02, 0.0])
        sol = solve_power_flow(model, p, q)
        again = solve_power_flow(model, p, q, warm=sol)
        assert again.iterations <= 2
        assert np.allclose(again.v, sol.v, atol=1e-10)
        # a warm solution contributes only its branch currents
        bogus = solve_power_flow(model, p, q, warm=replace(sol, v=np.full(3, 2.0)))
        for name in ("v", "p_flow", "q_flow", "i_sq", "p_pcc", "iterations", "residual"):
            assert np.array_equal(getattr(bogus, name), getattr(again, name))
        # a warm start from other injections converges to the cold solution
        tol = 1e-8
        other = solve_power_flow(model, -p, 3.0 * q, tol=tol)
        moved = solve_power_flow(model, p, q, tol=tol, warm=other)
        assert np.max(np.abs(moved.v - sol.v)) <= 10 * tol
        assert moved.p_pcc == pytest.approx(sol.p_pcc, abs=10 * tol)

    @pytest.mark.parametrize("other", [36, 2], ids=["37-bus", "3-bus"])
    def test_warm_start_from_another_feeder_is_rejected(self, other):
        # a longer solution warm-started silently from its first currents,
        # a shorter one raised a bare IndexError
        warm = solve_power_flow(chain([0.01] * other, [0.01] * other), np.full(other, -0.01), np.zeros(other))
        with pytest.raises(ValueError, match=r"^warm.i_sq must have shape \(6,\): the warm solution is of another feeder$"):
            solve_power_flow(six_bus_feeder(), np.full(6, -0.01), np.zeros(6), warm=warm)

    @pytest.mark.parametrize("feeder", [six_bus_feeder, ieee37_shaped_feeder])
    @pytest.mark.parametrize("which", ["p", "q", "pq"])
    @pytest.mark.parametrize("value", [1e50, -1e50, 1e150, 1e200])
    def test_diverging_sweep_raises_before_any_overflow(self, feeder, which, value):
        # huge generation raises every voltage, so the negative-voltage check
        # never fired, and 1e200 warned "overflow encountered in multiply"
        model = feeder()
        inj = {w: np.full(model.n, value if w in which else 0.0) for w in "pq"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PowerFlowError):
                solve_power_flow(model, inj["p"], inj["q"])

    @pytest.mark.parametrize("branch", [0, 3, 5])
    def test_nan_in_warm_currents_is_not_reduced_away(self, branch):
        # the sweep's arg-reductions must propagate NaN as ndarray.max did
        model = six_bus_feeder()
        p, q = np.full(6, -0.01), np.zeros(6)
        warm = solve_power_flow(model, p, q)
        warm.i_sq[branch] = np.nan
        with pytest.raises(PowerFlowError, match="sweep diverged"):
            solve_power_flow(model, p, q, warm=warm)

    def test_nonconvergence_raises(self):
        # absurd load collapses the voltage
        with pytest.raises(PowerFlowError):
            solve_power_flow(two_bus(r=0.2, x=0.2), np.array([-3.0]), np.array([-3.0]))

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            solve_power_flow(two_bus(), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="^tol must be finite and positive$"):
            solve_power_flow(two_bus(), np.zeros(1), np.zeros(1), tol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["p", "q"])
    def test_nonfinite_injections_fail_fast(self, which, bad):
        inj = {"p": np.full(3, -0.01), "q": np.zeros(3)}
        inj[which][1] = bad
        with pytest.raises(ValueError, match="injections must be finite"):
            solve_power_flow(chain([0.01] * 3, [0.01] * 3), inj["p"], inj["q"])

    @pytest.mark.parametrize("v_sub", [np.nan, np.inf, -1.0, 0.0])
    def test_rejects_bad_substation_voltage_after_plan_is_cached(self, v_sub):
        with pytest.raises(NetworkDataError, match="^v_sub must be finite and positive$"):
            NetworkModel(branches=[Branch(0, 1, 0.01, 0.01)], v_sub=v_sub)
        model = two_bus()
        solve_power_flow(model, np.array([-0.1]), np.zeros(1))
        with pytest.raises(FrozenInstanceError):
            model.v_sub = v_sub

    @settings(max_examples=40, deadline=None)
    @given(radial_cases())
    # one-branch cases at which scipy's hybr reports "not making good
    # progress" although its root has a residual at rounding level
    @example(([(0, 1, 0.005859375, 0.0078125)], np.array([0.03125]), np.array([0.0])))
    @example(([(0, 1, 0.00390625, 0.001)], np.array([0.0]), np.array([0.0625])))
    def test_sweep_agrees_with_root_finder_on_any_layout(self, case):
        rows, p, q = case
        model = model_of(rows)
        sol = solve_power_flow(model, p, q)
        v_ref, pcc_ref = distflow_root(model, p, q)
        assert np.max(np.abs(sol.v - v_ref)) < 1e-8
        assert sol.p_pcc == pytest.approx(pcc_ref, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(radial_cases(), st.data())
    def test_warm_start_from_other_injections_agrees_with_root_finder(self, case, data):
        rows, p, q = case
        n = len(p)
        power = st.lists(st.floats(-0.2 / n, 0.2 / n), min_size=n, max_size=n)
        model, tol = model_of(rows), 1e-8
        warm = solve_power_flow(model, np.array(data.draw(power)), np.array(data.draw(power)), tol=tol)
        sol = solve_power_flow(model, p, q, tol=tol, warm=warm)
        cold = solve_power_flow(model, p, q, tol=tol)
        v_ref, pcc_ref = distflow_root(model, p, q)
        assert np.max(np.abs(sol.v - v_ref)) < 1e-8
        assert sol.p_pcc == pytest.approx(pcc_ref, abs=1e-8)
        assert np.max(np.abs(sol.v - cold.v)) <= 10 * tol
        assert sol.p_pcc == pytest.approx(cold.p_pcc, abs=10 * tol)

    @settings(max_examples=40, deadline=None)
    @given(radial_cases(), st.data())
    def test_cold_and_warm_solves_satisfy_the_residual_oracle(self, case, data):
        rows, p, q = case
        n = len(p)
        power = st.lists(st.floats(-0.2 / n, 0.2 / n), min_size=n, max_size=n)
        model = model_of(rows)
        p_other, q_other = np.array(data.draw(power)), np.array(data.draw(power))
        for tol in (1e-8, 1e-10, 1e-12):
            other = solve_power_flow(model, p_other, q_other, tol=tol)
            cold = solve_power_flow(model, p, q, tol=tol)
            warm = solve_power_flow(model, p, q, tol=tol, warm=other)
            for sol in (cold, warm):
                assert sol.residual <= tol
                # squaring the returned magnitudes back rounds in the last bits
                oracle = distflow_residual(model, p, q, sol)
                assert oracle <= tol + 1e-13
                assert abs(sol.residual - oracle) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(radial_cases(), st.data())
    def test_any_table_of_one_tree_is_one_feeder(self, case, data):
        """Rows permuted and flipped give an equal model, by receiving bus, with bit-identical flows."""
        rows, p, q = case
        perm = data.draw(st.permutations(range(len(rows))))
        flips = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        shuffled = []
        for e, flip in zip(perm, flips):
            frm, to, r, x = rows[e]
            shuffled.append((to, frm, r, x) if flip else (frm, to, r, x))
        # plain tuples on one side, Branch rows on the other
        model, other = model_of(rows), NetworkModel(shuffled)
        assert other == model
        assert [b.to for b in model.branches] == list(range(1, len(rows) + 1))
        assert np.array_equal(other.plan().bus, model.plan().bus)
        cold = solve_power_flow(model, p, q)
        warm = solve_power_flow(model, -p, q, warm=cold)
        for twin in (other, pickle.loads(pickle.dumps(other)), copy.deepcopy(other), replace(other)):
            assert twin == model
            assert_same_solution(solve_power_flow(twin, p, q), cold)
            assert_same_solution(solve_power_flow(twin, -p, q, warm=cold), warm)


class TestPccExchange:
    def test_zero_case(self):
        sol = solve_power_flow(two_bus(), np.zeros(1), np.zeros(1))
        assert sol.p_pcc == 0.0

    def test_pure_load_import_exceeds_load(self):
        rng = np.random.default_rng(3)
        model = random_feeder(rng, 4)
        p = -rng.uniform(0.01, 0.15, 4)
        sol = solve_power_flow(model, p, np.zeros(4))
        assert sol.p_pcc >= -p.sum()

    def test_two_bus_value(self):
        sol = solve_power_flow(two_bus(), np.array([-0.10]), np.array([0.0]), tol=1e-13)
        assert sol.p_pcc == pytest.approx(TWO_BUS_LOAD_PCC, abs=1e-12)


class TestLoadNetwork:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("from,to,r_pu,x_pu\n0,1,0.01,0.02\n1,2,0.015,0.025\n")
        model = load_network(path)
        assert model.n == 2
        assert model.branches[1].x == 0.025

    def test_missing_header(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("0,1,0.01,0.02\n")
        with pytest.raises(NetworkDataError, match="header"):
            load_network(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("from,to,r_pu,x_pu\n0,1,0.01\n")
        with pytest.raises(NetworkDataError, match="net.csv:2"):
            load_network(path)

    @pytest.mark.parametrize("field", ["nan", "inf"])
    def test_impedance_that_is_not_finite_is_rejected(self, tmp_path, field):
        path = tmp_path / "net.csv"
        path.write_text(f"from,to,r_pu,x_pu\n0,1,0.01,0.02\n1,2,{field},0.025\n")
        with pytest.raises(NetworkDataError, match=r"branch \(1,2\) needs finite r,x >= 0"):
            load_network(path)
