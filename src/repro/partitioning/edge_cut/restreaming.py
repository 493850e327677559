"""Restreaming partitioners — Nishimura & Ugander, KDD 2013.

re-LDG and re-FENNEL iterate their one-pass counterparts: pass ``t`` streams
the whole graph again, scoring each vertex against a *mixed* view of
neighbour placements — neighbours already re-assigned in the current pass
use their fresh assignment, everyone else uses the previous pass's.  Loads
are the current pass's (partitions refill from empty each pass).  A handful
of passes closes most of the quality gap to offline multilevel
partitioning, which Table 1 of the paper records as these algorithms'
distinguishing feature.

Both variants are their one-pass counterparts with ``num_passes`` set:
the pass loop and the mixed view live in
:class:`repro.partitioning.drivers.VertexStreamPartitioner`.
"""

from __future__ import annotations

from repro.partitioning.base import check_finite_at_least
from repro.partitioning.edge_cut.fennel import FennelPartitioner
from repro.partitioning.edge_cut.ldg import LdgPartitioner


class RestreamingLdgPartitioner(LdgPartitioner):
    """re-LDG: LDG's multiplicative objective, restreamed.

    Table 1 of the paper marks re-LDG as the restreaming algorithm with
    update support (a changed graph can simply be streamed again starting
    from the previous assignment).
    """

    name = "re-ldg"

    def __init__(self, num_passes: int = 5, balance_slack: float = 1.0, seed=None):
        check_finite_at_least("num_passes", num_passes, 1)
        super().__init__(balance_slack=balance_slack, seed=seed)
        self.num_passes = num_passes


class RestreamingFennelPartitioner(FennelPartitioner):
    """re-FENNEL: FENNEL's additive objective, restreamed.

    Follows the original restreaming paper in annealing α upward across
    passes (``alpha_growth`` multiplier per pass) so later passes weigh
    balance more heavily.
    """

    name = "re-fennel"

    def __init__(self, num_passes: int = 5, gamma: float = 1.5,
                 alpha: float | None = None, load_cap: float = 1.1,
                 alpha_growth: float = 1.5, seed=None):
        check_finite_at_least("num_passes", num_passes, 1)
        check_finite_at_least("alpha_growth", alpha_growth, 0, strict=True)
        super().__init__(gamma=gamma, alpha=alpha, load_cap=load_cap,
                         seed=seed)
        self.num_passes = num_passes
        self.alpha_growth = alpha_growth

    def _begin_pass(self, kernel, pass_index):
        kernel.begin_pass(kernel.alpha * (self.alpha_growth ** pass_index))
