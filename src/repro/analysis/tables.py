"""Plain-text result tables.

Every benchmark in :mod:`benchmarks` regenerates one of the paper's
quantitative claims and prints the resulting rows with a :class:`ResultTable`
so the output can be compared against the paper's text directly (and copied
into ``EXPERIMENTS.md``).
"""

from __future__ import annotations

from typing import Any, List, Sequence


class ResultTable:
    """A small fixed-column text table used for experiment output."""

    def __init__(self, columns: Sequence[str], title: str = "") -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values: Any, **named: Any) -> None:
        """Append a row either positionally or by column name."""
        if values and named:
            raise ValueError("pass values positionally or by name, not both")
        if named:
            missing = [column for column in self.columns if column not in named]
            if missing:
                raise ValueError(f"missing values for columns: {missing}")
            row = [named[column] for column in self.columns]
        else:
            if len(values) != len(self.columns):
                raise ValueError(
                    f"expected {len(self.columns)} values, got {len(values)}"
                )
            row = list(values)
        self.rows.append([self._format(value) for value in row])

    def render(self) -> str:
        """Render the table as aligned plain text."""
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = " | ".join(
            column.ljust(width) for column, width in zip(self.columns, widths)
        )
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
            )
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Render the table as GitHub-flavoured markdown.

        Used by :mod:`repro.analysis.experiments` to regenerate
        ``EXPERIMENTS.md``; the title (if any) becomes a bold caption line.
        """
        lines: List[str] = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            cells = [cell.replace("|", "\\|") for cell in row]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table (benchmarks call this with ``-s``)."""
        print()
        print(self.render())

    @staticmethod
    def _format(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            magnitude = abs(value)
            if magnitude >= 1000 or magnitude < 0.001:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResultTable(title={self.title!r}, rows={len(self.rows)})"
