"""Per-round records of arrival-gated min-plus runs, rebuilt in pure Python.

``KernelBackend.gated_minplus`` returns only the totals a ``RoundReport``
reads (:class:`~repro.kernels.backend.GatedTotals`).  These helpers expand a
run's final rows and its :class:`~repro.kernels.backend.GatedColumn` list
back into one record per delivery round, so tests can pin the round-by-round
trajectory and check that the kernels' totals are its sums.  Stdlib only:
the NumPy-less test leg runs them too.  Shared by
``tests/kernels/test_gated_minplus.py`` and ``tests/congest/test_symbolic.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.congest.engine import symbolic
from repro.congest.engine.schema import TreeSchema
from repro.kernels.backend import GatedColumn, GatedTotals
from repro.kernels.csr import CSRGraph


class RoundRecords(NamedTuple):
    """Per-active-round records of a gated run, stored column-wise.

    Entry ``t`` of every list belongs to delivery round ``round[t]``
    (ascending); rounds without a delivery are absent.
    """

    round: List[int]
    messages: List[int]
    bits: List[int]
    max_message_bits: List[int]
    #: ``ceil(max sender bits / B)``, at least 1.
    edge_charge: List[int]
    #: Bits of the first sender (in node order) over the bandwidth, else 0.
    violation_bits: List[int]


def round_records(
    csr: CSRGraph,
    rows: Sequence[Sequence[Any]],
    columns: Sequence[GatedColumn],
    bandwidth: int,
) -> RoundRecords:
    """The records of the broadcasts ``rows`` imply: every entry ``d`` of
    column ``j`` at a node with neighbors and ``d <= fire_limit`` sends one
    message of ``overhead + bit_length(d) + 1`` bits per edge, delivered in
    round ``offset + d``."""
    indptr = csr.indptr
    # (round, sender) -> [entries, bits, largest message]
    cells: Dict[Tuple[int, int], List[int]] = {}
    for node, row in enumerate(rows):
        if indptr[node + 1] == indptr[node]:
            continue
        for column, d in zip(columns, row):
            if d <= column.fire_limit:
                bits = column.overhead + d.bit_length() + 1
                cell = cells.setdefault((column.offset + d, node), [0, 0, 0])
                cell[0] += 1
                cell[1] += bits
                cell[2] = max(cell[2], bits)
    records = RoundRecords([], [], [], [], [], [])
    for (delivery, sender), (entries, sender_bits, largest) in sorted(cells.items()):
        degree = indptr[sender + 1] - indptr[sender]
        if not records.round or records.round[-1] != delivery:
            for field, start in zip(records, (delivery, 0, 0, 0, 1, 0)):
                field.append(start)
        records.messages[-1] += entries * degree
        records.bits[-1] += sender_bits * degree
        records.max_message_bits[-1] = max(records.max_message_bits[-1], largest)
        records.edge_charge[-1] = max(records.edge_charge[-1], -(-sender_bits // bandwidth))
        if sender_bits > bandwidth and not records.violation_bits[-1]:
            records.violation_bits[-1] = sender_bits
    return records


def totals_of(records: RoundRecords) -> GatedTotals:
    """The :class:`GatedTotals` the records sum to."""
    return GatedTotals(
        active_rounds=len(records.round),
        extra_charge=sum(records.edge_charge) - len(records.round),
        messages=sum(records.messages),
        bits=sum(records.bits),
        max_message_bits=max(records.max_message_bits, default=0),
        first_violation=next((bits for bits in records.violation_bits if bits), 0),
    )


def minplus_round_trace(
    network: Any,
    algorithm: Any,
    max_rounds: int,
    initial_memory: Optional[Dict[int, Dict[str, Any]]] = None,
) -> List[Tuple[int, int, int, int]]:
    """Per-round ``(round, messages, bits, edge_charge)`` trace of a gated
    run on the symbolic engine, idle rounds included (charge 1).

    Raises ``ValueError`` for a run the closed form does not cover, and
    asserts that the active backend's totals are the trace's sums.
    """
    schema = algorithm.message_schema()
    if isinstance(schema, TreeSchema) and schema.kind == "flood":
        schema = schema.flood
    inputs = symbolic._minplus_inputs(network, schema, initial_memory)
    if inputs is None:
        raise ValueError(f"symbolic engine cannot execute protocol '{algorithm.name}'")
    rows, totals, last_round = symbolic._minplus_closed_form(
        network, algorithm.name, schema, max_rounds, inputs
    )
    (csr, _, _, columns, _, bandwidth), _, _ = symbolic._gated_arguments(
        network, schema, max_rounds, inputs
    )
    records = round_records(csr, rows, columns, bandwidth)
    assert totals_of(records) == totals
    by_round = {
        delivery: (messages, bits, charge)
        for delivery, messages, bits, charge in zip(
            records.round, records.messages, records.bits, records.edge_charge
        )
    }
    return [
        (round_number, *by_round.get(round_number, (0, 0, 1)))
        for round_number in range(1, last_round + 1)
    ]
