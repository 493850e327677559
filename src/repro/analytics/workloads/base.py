"""Workload interface for the synchronous GAS engine.

A workload is the *algorithm* being executed (PageRank, WCC, SSSP); it
runs on the **full** graph — distribution never changes the numerical
result, only where work and messages land — and yields one
:class:`IterationActivity` per super-step describing:

* which vertices send along their **out-edges** this step
  (``sends_forward``);
* which send along their **in-edges** (``sends_reverse``, used by
  undirected propagation such as WCC);
* which vertices' values **changed** in apply (they must update their
  mirrors before the next step).

The engine combines these masks with a :class:`~repro.analytics.placement.
Placement` to account messages, bytes and per-machine work — so a
workload is written once and runs identically under every cut model,
exactly like a vertex program in PowerLyra.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import Graph


def check_at_least_one(name: str, value: int) -> None:
    """Reject an iteration bound or count below 1, naming it and its value.

    A bound of 0 runs no superstep, and the workload's ``result()`` then
    reports its initial state as if it had converged.
    """
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")


@dataclass
class IterationActivity:
    """Activity of one super-step.

    ``sends_forward`` / ``sends_reverse`` are boolean vertex masks
    (``None`` ⇒ nobody sends in that direction).  ``changed`` marks
    vertices whose value changed in this step's apply phase.
    """

    sends_forward: np.ndarray | None
    sends_reverse: np.ndarray | None
    changed: np.ndarray


class Workload(ABC):
    """An iterative vertex-centric graph algorithm."""

    #: Registry name.
    name = "?"
    #: 'uni' — communication flows one way along edges (PR, SSSP), so a
    #: changed vertex only updates mirrors holding its out-edges;
    #: 'bi' — propagation is undirected (WCC), all mirrors need the value.
    direction = "uni"

    @abstractmethod
    def iterations(self, graph: Graph) -> Iterator[IterationActivity]:
        """Run the algorithm, yielding activity per super-step."""

    def result(self):
        """Final vertex values of the last :meth:`iterations` run."""
        return getattr(self, "_values", None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
