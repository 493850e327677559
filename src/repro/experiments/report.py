"""Plain-text rendering of experiment results.

Every experiment entry point returns an :class:`ExperimentReport`
containing one or more :class:`Table` objects — the textual equivalent of
the paper's tables and figure panels — plus free-form notes stating which
paper-shape checks the run satisfies.  ``render()`` produces the exact
text the CLI and the benchmark harness print.

The two recurring shapes have one builder each: a metric per key and
algorithm (:meth:`ExperimentReport.add_grid`: Table 4, Figs. 2, 3, 6,
12–14) and a box line per algorithm (``add_distributions``: Figs. 4, 7, 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Table:
    """A simple aligned text table."""

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for col, cell in enumerate(row):
                widths[col] = max(widths[col], len(cell))
        lines = [self.title]
        header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)


#: Column header of each :class:`~repro.metrics.DistributionSummary`
#: field a box-line table can show.
_BOX_HEADERS = {"minimum": "Min", "p25": "p25", "median": "Median",
                "p75": "p75", "p95": "p95", "p99": "p99", "maximum": "Max"}


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class ExperimentReport:
    """The output of one table/figure reproduction."""

    experiment_id: str
    title: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Machine-readable payload for tests and downstream analysis.
    data: dict = field(default_factory=dict)
    #: Run provenance stamped by the harness (wall time, telemetry event
    #: counts) — rendered as a trailer line when present.  Wall time is
    #: real time and so *not* part of any deterministic artifact; it only
    #: appears in the human-facing render.
    provenance: dict = field(default_factory=dict)

    def add_table(self, table: Table) -> Table:
        self.tables.append(table)
        return table

    def add_grid(self, title: str, label: str, keys, algorithms, cell,
                 digits: int | None = None) -> dict:
        """Add a table with a row per key and a column per algorithm.

        ``cell(key, algorithm)`` gives each value; the table shows it as
        ``round(value, digits)`` (``None``: an int).  Returns the
        unrounded ``{key: {algorithm: value}}``, filled row by row.
        """
        table = self.add_table(Table(
            title, [label, *[a.upper() for a in algorithms]]))
        grid = {}
        for key in keys:
            row = {algorithm: cell(key, algorithm) for algorithm in algorithms}
            grid[key] = row
            table.add_row(key, *[round(row[a], digits) for a in algorithms])
        return grid

    def add_distributions(self, title: str, summaries: dict, columns,
                          digits: int) -> dict:
        """Add a box-line table: one row per algorithm's summary.

        *summaries* maps algorithm to
        :class:`~repro.metrics.DistributionSummary`; *columns* names the
        fields shown, each rounded to *digits*, before Max/Mean (always
        2 digits).  Returns *summaries*.
        """
        table = self.add_table(Table(
            title,
            ["Algorithm", *[_BOX_HEADERS[c] for c in columns], "Max/Mean"]))
        for algorithm, dist in summaries.items():
            table.add_row(algorithm.upper(),
                          *[round(getattr(dist, c), digits) for c in columns],
                          round(dist.max_over_mean, 2))
        return summaries

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def stamp_provenance(self, **entries) -> None:
        """Attach run-provenance entries (wall time, event counts, ...)."""
        self.provenance.update(entries)

    def render(self) -> str:
        parts = [f"=== {self.experiment_id}: {self.title} ==="]
        for table in self.tables:
            parts.append(table.render())
        if self.notes:
            parts.append("Notes:")
            parts.extend(f"  - {note}" for note in self.notes)
        if self.provenance:
            stamped = " ".join(f"{key}={value}"
                               for key, value in self.provenance.items())
            parts.append(f"[provenance: {stamped}]")
        return "\n\n".join(parts)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
