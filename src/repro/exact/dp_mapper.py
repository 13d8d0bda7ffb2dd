"""Exact mapping by dynamic programming over complete mappings.

The paper's cost function decomposes over the gate sequence: before every
CNOT the mapping may change (charged ``7 * swaps(pi)`` for the cheapest
permutation realising the change) and every CNOT placed against the coupling
direction costs 4.  For a fixed, small device the set of complete
logical-to-physical mappings is tiny (at most ``m! / (m - n)!``), so the
minimum of the paper's objective can be computed exactly by a shortest-path /
dynamic-programming sweep over "(gate index, mapping)" states.

The SWAP part of a mapping change is itself a shortest path.  The
*placement graph* has one node per injective placement of the ``n`` logical
qubits on the ``m`` physical ones, and every undirected coupling edge links
a placement to the one obtained by exchanging that edge's two physical
qubits, at cost ``SWAP_COST``.  Every SWAP sequence from placement ``a`` to
placement ``b`` realises a full permutation consistent with ``(a, b)`` and
vice versa, so the graph distance equals the minimum over all consistent
completions that :class:`~repro.arch.permutations.PermutationTable` would
compute.  A permutation spot is therefore one multi-source shortest path,
started from every state of the previous layer at its accumulated cost:
``S * |E|`` edge relaxations for ``S`` states instead of ``S**2`` pairwise
transition queries.  Because every edge costs the same, the search needs no
heap: the seeds sorted by cost and the FIFO of relaxed states are merged.

This engine is *not* the paper's method (the paper uses a reasoning engine on
the symbolic formulation), but it computes the same minimum.  It serves two
purposes in this reproduction:

* as an independent oracle to cross-check the SAT formulation in the test
  suite (both engines must agree on the minimal cost),
* as a fast way to produce the "minimal" column of Table 1 for the larger
  benchmark circuits, where the pure-Python SAT optimiser would need
  impractically long runtimes.

The permutation-restriction strategies of Section 4.2 are supported in the
same way as in the SAT engine: between gates that are not permutation spots
the mapping must stay unchanged.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.arch.coupling import CouplingMap
from repro.circuit.circuit import QuantumCircuit
from repro.exact.cost import REVERSAL_COST, SWAP_COST
from repro.exact.reconstruction import build_result, default_schedule
from repro.exact.result import MappingResult, MappingSchedule
from repro.exact.strategies import AllGatesStrategy, PermutationStrategy
from repro.arch.cache import shared_permutation_table

State = Tuple[int, ...]

#: Distance of a state no path reaches.
_UNREACHED = float("inf")


def placement_graph(
    coupling: CouplingMap, num_logical: int
) -> Tuple[List[State], List[List[int]]]:
    """The injective placements of *num_logical* qubits and their SWAP neighbours.

    Returns ``(states, neighbours)``: ``neighbours[i]`` lists the indices of
    the placements one SWAP away from ``states[i]``, one per undirected
    coupling edge with at least one occupied end (exchanging two free
    physical qubits leaves the placement as it is).
    """
    num_physical = coupling.num_qubits
    states: List[State] = list(
        itertools.permutations(range(num_physical), num_logical)
    )
    index = {state: position for position, state in enumerate(states)}
    edges = sorted(coupling.undirected_edges)
    neighbours: List[List[int]] = []
    for state in states:
        occupant = [-1] * num_physical
        for logical, physical in enumerate(state):
            occupant[physical] = logical
        row: List[int] = []
        for a, b in edges:
            on_a, on_b = occupant[a], occupant[b]
            if on_a < 0 and on_b < 0:
                continue
            moved = list(state)
            if on_a >= 0:
                moved[on_a] = b
            if on_b >= 0:
                moved[on_b] = a
            row.append(index[tuple(moved)])
        neighbours.append(row)
    return states, neighbours


def swap_distances(
    seeds: Dict[int, int], neighbours: List[List[int]]
) -> Tuple[List[float], List[int], int]:
    """Multi-source shortest paths over the placement graph.

    Every state in *seeds* starts at its given cost; every edge costs
    ``SWAP_COST``.  Returns ``(distance, origin, relaxations)``: the cheapest
    cost of reaching each state (``inf`` when no seed reaches it), the seed
    that cheapest path starts from (``-1`` when unreached) and the number of
    edges relaxed.
    """
    distance: List[float] = [_UNREACHED] * len(neighbours)
    origin = [-1] * len(neighbours)
    for state, cost in seeds.items():
        distance[state] = cost
        origin[state] = state
    # With uniform edge costs the relaxed states enter the FIFO in
    # non-decreasing distance order, so merging it with the sorted seeds
    # settles states in Dijkstra order without a heap.
    pending = sorted((cost, state) for state, cost in seeds.items())
    num_pending = len(pending)
    next_seed = 0
    frontier: deque = deque()
    relaxations = 0
    while True:
        if frontier and (
            next_seed == num_pending
            or distance[frontier[0]] <= pending[next_seed][0]
        ):
            state = frontier.popleft()
        elif next_seed < num_pending:
            cost, state = pending[next_seed]
            next_seed += 1
            if distance[state] < cost:
                continue  # already settled more cheaply from another seed
        else:
            break
        reach = distance[state] + SWAP_COST
        root = origin[state]
        row = neighbours[state]
        relaxations += len(row)
        for successor in row:
            if reach < distance[successor]:
                distance[successor] = reach
                origin[successor] = root
                frontier.append(successor)
    return distance, origin, relaxations


class DPMapper:
    """Exact mapper based on dynamic programming over complete mappings.

    Args:
        coupling: Target architecture (at most 8 physical qubits, since the
            full permutation table of the device is enumerated).
        strategy: Permutation-restriction strategy (defaults to permutations
            before every gate, i.e. the minimal formulation).
        decompose_swaps: Emit SWAPs in the reconstructed circuit as their
            7-gate decomposition (default) or as opaque ``swap`` gates.

    Example:
        >>> from repro.arch import ibm_qx4
        >>> from repro.circuit import QuantumCircuit
        >>> circuit = QuantumCircuit(3)
        >>> circuit.cx(0, 1).cx(1, 2).cx(0, 2)
        >>> result = DPMapper(ibm_qx4()).map(circuit)
        >>> result.optimal
        True
    """

    def __init__(
        self,
        coupling: CouplingMap,
        strategy: Optional[PermutationStrategy] = None,
        decompose_swaps: bool = True,
    ):
        self.coupling = coupling
        self.strategy = strategy if strategy is not None else AllGatesStrategy()
        self.decompose_swaps = decompose_swaps
        self._table = shared_permutation_table(coupling)
        # Optional cooperative-cancellation token (see bind_control).
        self.control = None

    def bind_control(self, control) -> None:
        """Attach a :class:`~repro.sat.control.SolveControl` token.

        Later :meth:`map` calls check ``control.cancelled`` once per gate
        layer; after ``control.cancel()`` the running call stops at the next
        layer and raises :class:`RuntimeError`, since the DP has no partial
        solution to return.
        """
        self.control = control

    # ------------------------------------------------------------------
    def map(self, circuit: QuantumCircuit) -> MappingResult:
        """Map *circuit* and return the minimal-cost result.

        Raises:
            ValueError: If the circuit needs more logical qubits than the
                device offers, or a CNOT cannot be placed at all.
            RuntimeError: If the bound control token is cancelled while
                mapping.
        """
        start = time.monotonic()
        num_logical = circuit.num_qubits
        num_physical = self.coupling.num_qubits
        if num_logical > num_physical:
            raise ValueError(
                f"circuit has {num_logical} logical qubits but the device only "
                f"has {num_physical}"
            )
        cnot_gates = circuit.cnot_gates()
        gates = [(gate.control, gate.target) for gate in cnot_gates]
        if not gates:
            schedule = default_schedule(num_logical, self.coupling)
            return build_result(
                circuit, schedule, self.coupling,
                engine="dp", strategy=self.strategy.name,
                objective=0, optimal=True,
                runtime_seconds=time.monotonic() - start,
                num_permutation_spots=0,
                statistics={"states": 0},
                decompose_swaps=self.decompose_swaps,
                permutation_table=self._table,
            )

        spots = set(self.strategy.spots(cnot_gates, self.coupling))
        spots.add(0)

        all_states, neighbours = placement_graph(self.coupling, num_logical)

        # Valid states per gate: the gate's qubits must sit on a coupled
        # pair, at no cost along the edge and REVERSAL_COST against it.
        placement_cost = {(t, c): REVERSAL_COST for c, t in self.coupling.edges}
        placement_cost.update({edge: 0 for edge in self.coupling.edges})
        options_by_pair: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        valid_states: List[List[Tuple[int, int]]] = []
        for control, target in gates:
            options = options_by_pair.get((control, target))
            if options is None:
                options = []
                for index, state in enumerate(all_states):
                    cost = placement_cost.get((state[control], state[target]))
                    if cost is not None:
                        options.append((index, cost))
                if not options:
                    raise ValueError(
                        f"CNOT({control}, {target}) cannot be placed on any "
                        "coupled pair"
                    )
                options_by_pair[(control, target)] = options
            valid_states.append(options)

        # Dynamic programming over (gate, state): a spot is one
        # multi-source shortest path, any other gate keeps the mapping.
        best: Dict[int, int] = dict(valid_states[0])
        parents: List[Dict[int, int]] = [{}]
        transitions_evaluated = 0
        for k in range(1, len(gates)):
            if self.control is not None and self.control.cancelled:
                raise RuntimeError(f"DP mapping cancelled before gate {k}")
            new_best: Dict[int, int] = {}
            parent: Dict[int, int] = {}
            if k in spots:
                distance, origin, relaxations = swap_distances(best, neighbours)
                transitions_evaluated += relaxations
                for state, gate_cost in valid_states[k]:
                    reached = distance[state]
                    if reached != _UNREACHED:
                        new_best[state] = reached + gate_cost
                        parent[state] = origin[state]
            else:
                for state, gate_cost in valid_states[k]:
                    previous_cost = best.get(state)
                    if previous_cost is not None:
                        new_best[state] = previous_cost + gate_cost
                        parent[state] = state
            if not new_best:
                raise ValueError(
                    f"no valid mapping exists before gate {k} under strategy "
                    f"{self.strategy.name!r}"
                )
            best = new_best
            parents.append(parent)

        # Recover the optimal mapping sequence.
        final_state = min(best, key=best.get)  # type: ignore[arg-type]
        objective = best[final_state]
        sequence: List[int] = [final_state]
        current = final_state
        for k in range(len(gates) - 1, 0, -1):
            current = parents[k][current]
            sequence.append(current)
        sequence.reverse()
        mappings = [all_states[state] for state in sequence]

        schedule = MappingSchedule(
            num_logical=num_logical,
            num_physical=num_physical,
            mappings=mappings,
            initial_mapping=mappings[0],
        )
        runtime = time.monotonic() - start
        return build_result(
            circuit,
            schedule,
            self.coupling,
            engine="dp",
            strategy=self.strategy.name,
            objective=objective,
            optimal=isinstance(self.strategy, AllGatesStrategy),
            runtime_seconds=runtime,
            num_permutation_spots=len(spots),
            statistics={
                "states": len(all_states),
                "transitions_evaluated": transitions_evaluated,
            },
            decompose_swaps=self.decompose_swaps,
            permutation_table=self._table,
        )


__all__ = ["DPMapper"]
