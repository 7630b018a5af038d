"""Plain-text table/figure rendering for experiment output.

The original paper presents its results as tables and stacked-bar
figures.  This module renders the same content as aligned text tables and
ASCII stacked bars, so every experiment's output can be diffed, logged
from a benchmark run, and pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

from ..cpu import ExecutionBreakdown
from ..cpu.results import COMPONENT_GLYPHS, COMPONENTS


def format_table(
    headers: list[str],
    rows: list[list],
    title: str = "",
    float_fmt: str = "{:.1f}",
) -> str:
    """Render an aligned text table."""
    def cell(value) -> str:
        if isinstance(value, float):
            return float_fmt.format(value)
        return str(value)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows))
        if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def breakdown_rows(
    runs: list[ExecutionBreakdown],
    base: ExecutionBreakdown,
) -> list[list]:
    """Rows of normalised execution-time components (percent of BASE)."""
    rows = []
    for run in runs:
        nz = run.normalized_to(base)
        rows.append(
            [run.label] + [nz[comp] for comp in COMPONENTS] + [nz["total"]]
        )
    return rows


def format_breakdowns(
    title: str,
    runs: list[ExecutionBreakdown],
    base: ExecutionBreakdown,
) -> str:
    """The paper's stacked-bar data as a table (percent of BASE time)."""
    headers = ["config", *COMPONENTS, "total"]
    return format_table(headers, breakdown_rows(runs, base), title=title)


def format_app_breakdowns(
    results: dict[str, list[ExecutionBreakdown]],
    title: str,
    bars: bool = False,
) -> str:
    """One :func:`format_breakdowns` table per application, each
    normalised to its first run (BASE).  ``title`` names the
    application as ``{APP}``; ``bars`` adds the stacked bars below
    each table."""
    sections = []
    for app, runs in results.items():
        sections.append(
            format_breakdowns(title.format(APP=app.upper()), runs, runs[0])
        )
        if bars:
            sections.append(format_stacked_bars("", runs, runs[0]))
    return "\n\n".join(sections)


def format_stacked_bars(
    title: str,
    runs: list[ExecutionBreakdown],
    base: ExecutionBreakdown,
    width: int = 60,
) -> str:
    """ASCII rendition of the paper's stacked execution-time bars.

    Each configuration is one horizontal bar scaled so that BASE fills
    ``width`` characters: ``#`` busy, ``S`` sync stall, ``R`` read stall,
    ``W`` write stall, ``.`` other.
    """
    label_w = max((len(r.label) for r in runs), default=5)
    lines = [title] if title else []
    for run in runs:
        nz = run.normalized_to(base)
        scale = width / 100.0
        bar = "".join(
            COMPONENT_GLYPHS[comp] * round(nz[comp] * scale)
            for comp in COMPONENTS
        )
        lines.append(
            f"{run.label.ljust(label_w)} |{bar}| {nz['total']:6.1f}%"
        )
    legend = "  ".join(
        f"{COMPONENT_GLYPHS[comp]} {comp}" for comp in COMPONENTS
    )
    lines.append(f"{''.ljust(label_w)}  legend: {legend}")
    return "\n".join(lines)
