"""CONGEST model substrate.

This subpackage provides the distributed-computing substrate on which the
paper's algorithms run:

* :mod:`repro.congest.message` -- messages with explicit bit-size accounting.
* :mod:`repro.congest.vertex` -- the per-vertex algorithm interface used by
  the faithful synchronous simulator.
* :mod:`repro.congest.network` -- a faithful synchronous CONGEST simulator
  (one O(log n)-bit message per edge per direction per round).
* :mod:`repro.congest.cost` -- the cost-accounted executor used for
  large-graph scaling experiments: communication primitives charge the number
  of rounds they would need given actual data volumes and bandwidths.
* :mod:`repro.congest.metrics` -- round / message counters shared by both
  execution modes.

The two execution modes deliberately share the same metric objects so the
listing algorithms can report round complexities regardless of how they were
driven.
"""

from repro.congest.message import Message, message_size_bits, words_for_payload
from repro.congest.metrics import CongestMetrics
from repro.congest.vertex import VertexAlgorithm
from repro.congest.network import CongestNetwork, SynchronousRun
from repro.congest.cost import (
    BandwidthModel,
    CostAccountant,
    RoutingOverhead,
    polylog_overhead,
    subpolynomial_overhead,
)

__all__ = [
    "Message",
    "message_size_bits",
    "words_for_payload",
    "CongestMetrics",
    "VertexAlgorithm",
    "CongestNetwork",
    "SynchronousRun",
    "BandwidthModel",
    "CostAccountant",
    "RoutingOverhead",
    "polylog_overhead",
    "subpolynomial_overhead",
]
