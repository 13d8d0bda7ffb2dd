"""Unit tests for the dynamic-programming exact mapper."""

import itertools
import os
import subprocess
import sys
import threading
import time
from collections import deque

import pytest

from repro.arch.cache import shared_permutation_table
from repro.arch.devices import ibm_qx2, ibm_qx4, linear_architecture, sweep_grid8
from repro.benchlib.generators import random_clifford_t_circuit
from repro.benchlib.paper_example import paper_example_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.exact.cost import REVERSAL_COST, SWAP_COST
from repro.exact.dp_mapper import DPMapper, placement_graph
from repro.exact.strategies import (
    DisjointQubitsStrategy,
    OddGatesStrategy,
    QubitTriangleStrategy,
    available_strategies,
    get_strategy,
)
from repro.pipeline import MappingPipeline
from repro.sat.control import SolveControl
from repro.sim.equivalence import result_is_equivalent
from repro.verify import verify_result


class TestDPMapperBasics:
    def test_single_cnot_on_coupled_pair_costs_nothing(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert result.added_cost == 0
        assert result.optimal
        assert verify_result(result, ibm_qx4()).compliant

    def test_single_reversed_cnot_costs_at_most_four(self):
        # Any CNOT can be placed on some edge of QX4 in the right direction,
        # so the minimum is 0 for a one-gate circuit.
        circuit = QuantumCircuit(2)
        circuit.cx(1, 0)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert result.added_cost == 0

    def test_reversal_is_needed_on_directed_line(self):
        # On a strictly directed 2-qubit line 0 -> 1, a circuit using both
        # CNOT directions must reverse one of them with 4 Hadamards.
        line = linear_architecture(2)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        result = DPMapper(line).map(circuit)
        assert result.cost.reversals == 1
        assert result.cost.swaps == 0
        assert result.added_cost == 4

    def test_swap_needed_on_line_three(self):
        # Pairwise interactions 0-1, 1-2 and 0-2 cannot be placed on a
        # 3-qubit line without at least one SWAP.
        line = linear_architecture(3, bidirectional=True)
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        result = DPMapper(line).map(circuit)
        assert result.cost.swaps >= 1
        assert result.added_cost >= 7
        assert result_is_equivalent(result)

    def test_circuit_without_cnots(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).t(1).x(2)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert result.added_cost == 0
        assert result.mapped_circuit.count_single_qubit() == 3

    def test_too_many_qubits_rejected(self):
        circuit = QuantumCircuit(6)
        circuit.cx(0, 5)
        with pytest.raises(ValueError):
            DPMapper(ibm_qx4()).map(circuit)

    def test_triangle_circuit_on_qx4_costs_only_reversals(self):
        # Three mutually interacting qubits fit on a triangle of QX4, so no
        # SWAP is ever needed; only direction fixes may be required.
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(2, 0)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert result.cost.swaps == 0
        assert result.added_cost <= 8


class TestDPMapperEndToEnd:
    def test_paper_example_is_mapped_correctly(self):
        result = DPMapper(ibm_qx4()).map(paper_example_circuit())
        assert result.optimal
        assert verify_result(result, ibm_qx4()).compliant
        assert result_is_equivalent(result)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_circuits_are_compliant_and_equivalent(self, seed):
        circuit = random_clifford_t_circuit(4, 5, 8, seed=seed)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert verify_result(result, ibm_qx4()).compliant
        assert result_is_equivalent(result)
        assert result.objective == result.added_cost

    def test_qx2_and_qx4_both_work(self):
        circuit = random_clifford_t_circuit(5, 4, 10, seed=7)
        for device in (ibm_qx2(), ibm_qx4()):
            result = DPMapper(device).map(circuit)
            assert verify_result(result, device).compliant
            assert result_is_equivalent(result)


class TestDPMapperStrategies:
    @pytest.mark.parametrize(
        "strategy_cls", [DisjointQubitsStrategy, OddGatesStrategy, QubitTriangleStrategy]
    )
    def test_restricted_strategies_never_beat_the_minimum(self, strategy_cls):
        circuit = random_clifford_t_circuit(4, 3, 10, seed=13)
        qx4 = ibm_qx4()
        minimal = DPMapper(qx4).map(circuit)
        restricted = DPMapper(qx4, strategy=strategy_cls()).map(circuit)
        assert restricted.added_cost >= minimal.added_cost
        assert not restricted.optimal
        assert result_is_equivalent(restricted)

    def test_restricted_strategy_reports_spot_count(self):
        circuit = random_clifford_t_circuit(4, 0, 9, seed=3)
        result = DPMapper(ibm_qx4(), strategy=OddGatesStrategy()).map(circuit)
        assert result.num_permutation_spots == 5

    def test_objective_matches_reconstructed_cost(self):
        circuit = random_clifford_t_circuit(5, 6, 12, seed=21)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert result.objective == result.added_cost


def _pairwise_dp_objective(coupling, strategy, circuit):
    """Reference DP: every spot compares all state pairs via the table.

    Returns ``None`` when no mapping satisfies the strategy.
    """
    table = shared_permutation_table(coupling)
    gates = [(gate.control, gate.target) for gate in circuit.cnot_gates()]
    spots = set(strategy.spots(circuit.cnot_gates(), coupling)) | {0}
    states = list(
        itertools.permutations(range(coupling.num_qubits), circuit.num_qubits)
    )

    def gate_cost(state, control, target):
        if coupling.allows_cnot(state[control], state[target]):
            return 0
        if coupling.allows_cnot(state[target], state[control]):
            return REVERSAL_COST
        return None

    best = {}
    for k, (control, target) in enumerate(gates):
        new_best = {}
        for state in states:
            cost = gate_cost(state, control, target)
            if cost is None:
                continue
            if k == 0:
                new_best[state] = cost
            elif k not in spots:
                if state in best:
                    new_best[state] = best[state] + cost
            else:
                candidates = []
                for old, old_cost in best.items():
                    try:
                        swaps = table.transition_cost(old, state)
                    except ValueError:
                        continue
                    candidates.append(old_cost + SWAP_COST * swaps)
                if candidates:
                    new_best[state] = min(candidates) + cost
        best = new_best
    return min(best.values(), default=None)


class TestDPMapperExactness:
    def test_placement_graph_distance_equals_table_transition_cost(self):
        qx4 = ibm_qx4()
        table = shared_permutation_table(qx4)
        states, neighbours = placement_graph(qx4, 4)
        assert len(states) == 120
        for source, old in enumerate(states):
            hops = {source: 0}
            queue = deque([source])
            while queue:
                state = queue.popleft()
                for successor in neighbours[state]:
                    if successor not in hops:
                        hops[successor] = hops[state] + 1
                        queue.append(successor)
            assert len(hops) == len(states)
            for target, new in enumerate(states):
                assert hops[target] == table.transition_cost(old, new)

    @pytest.mark.parametrize("strategy_name", available_strategies())
    @pytest.mark.parametrize(
        "device", [ibm_qx2(), ibm_qx4(), linear_architecture(4)],
        ids=lambda device: device.name,
    )
    def test_matches_pairwise_reference_dp(self, device, strategy_name):
        strategy = get_strategy(strategy_name)
        for seed in range(3):
            num_qubits = min(3 + seed, device.num_qubits)
            circuit = random_clifford_t_circuit(num_qubits, 3, 8, seed=seed)
            expected = _pairwise_dp_objective(device, strategy, circuit)
            mapper = DPMapper(device, strategy=strategy)
            if expected is None:
                with pytest.raises(ValueError, match="no valid mapping"):
                    mapper.map(circuit)
                continue
            result = mapper.map(circuit)
            assert result.objective == expected
            result.validate(device)
            assert result_is_equivalent(result)


    def test_each_spot_settles_every_placement_once(self):
        # On qx4 with 4 logical qubits every placement is reachable and has
        # one SWAP neighbour per coupling edge: a spot relaxes 120 * 6 edges.
        circuit = random_clifford_t_circuit(4, 0, 10, seed=5)
        result = DPMapper(ibm_qx4()).map(circuit)
        assert result.statistics["transitions_evaluated"] == 9 * 120 * 6


class TestDPMapperCancellation:
    def test_cancel_stops_a_long_map_promptly(self):
        mapper = DPMapper(sweep_grid8())
        control = SolveControl()
        mapper.bind_control(control)
        circuit = random_clifford_t_circuit(7, 0, 30, seed=1)
        cancelled_at = []

        def cancel():
            cancelled_at.append(time.monotonic())
            control.cancel()

        timer = threading.Timer(0.3, cancel)
        timer.start()
        try:
            with pytest.raises(RuntimeError, match="cancelled"):
                mapper.map(circuit)
        finally:
            timer.cancel()
        assert cancelled_at
        assert time.monotonic() - cancelled_at[0] < 1.0

    def test_pipeline_binds_the_control(self):
        control = SolveControl()
        control.cancel()
        circuit = random_clifford_t_circuit(4, 0, 6, seed=2)
        with pytest.raises(RuntimeError, match="cancelled"):
            MappingPipeline(ibm_qx4(), engine="dp").map(circuit, control=control)


def test_mapping_imports_no_simulator_or_service_dependencies():
    script = (
        "import sys, repro\n"
        "from repro import DPMapper, QuantumCircuit, ibm_qx4\n"
        "circuit = QuantumCircuit(3)\n"
        "circuit.cx(0, 1).cx(1, 2).cx(0, 2)\n"
        "DPMapper(ibm_qx4()).map(circuit)\n"
        "print(sorted({'numpy', 'asyncio', 'sqlite3'} & set(sys.modules)))\n"
        "print(all(getattr(repro, name) is not None for name in repro.__all__))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    output = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    ).stdout.split()
    assert output == ["[]", "True"]
