"""The measured numbers in ``docs/performance.md`` match their JSON.

Every table of measurements in the performance doc cites one committed
``BENCH_*.json``.  Each number in such a table must equal the JSON value
it reports, rounded to the precision the table prints, so a regenerated
benchmark file cannot leave the doc behind (and a hand-edited table
cannot drift from the file it claims to show).  A new table with numbers
in it fails here until it is given a spec below.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
DOC = REPO / "docs" / "performance.md"

_NUMBER = re.compile(r"\d+(?:\.\d+)?")
_CODE = re.compile(r"`[^`]*`")
_CELL_SPLIT = re.compile(r"(?<!\\)\|")


@dataclass(frozen=True)
class Spec:
    """Where the numbers of one doc table live in its benchmark JSON.

    ``row`` maps a row's cells to the JSON path of that row; the ``keys``
    columns name the row and are only used there.  ``columns`` maps every
    other column header to the JSON paths of the numbers in its cells, in
    the order they are printed; ``path*k`` scales the value by ``k``.
    """

    bench: str
    keys: tuple[str, ...]
    row: Callable[[list[str]], str]
    columns: dict[str, tuple[str, ...]]


_MIXES = {"duplicate-heavy": "duplicate", "sweep-heavy": "sweep"}

SPECS = {
    (
        "scale",
        "CG s/solve (reference → incremental)",
        "speedup",
        "steps",
    ): Spec(
        bench="BENCH_incremental.json",
        keys=("scale",),
        row=lambda cells: f"scales.{cells[0]}.critical_greedy",
        columns={
            "CG s/solve (reference → incremental)": (
                "reference_s_per_solve",
                "incremental_s_per_solve",
            ),
            "speedup": ("speedup_vs_reference",),
            "steps": ("steps",),
        },
    ),
    (
        "scale",
        "s/sweep (serial → batched)",
        "speedup",
        "Σ steps across rows",
    ): Spec(
        bench="BENCH_batched.json",
        keys=("scale",),
        row=lambda cells: f"scales.{cells[0]}",
        columns={
            "s/sweep (serial → batched)": ("serial_s_per_sweep", "batched_s_per_sweep"),
            "speedup": ("speedup_vs_serial",),
            "Σ steps across rows": ("total_steps",),
        },
    ),
    (
        "scale",
        "ms/event (warm live)",
        "ms/solve (from scratch)",
        "speedup",
        "events",
        "revisions",
    ): Spec(
        bench="BENCH_live.json",
        keys=("scale",),
        row=lambda cells: f"scales.{cells[0]}",
        columns={
            "ms/event (warm live)": ("live_event_s*1000",),
            "ms/solve (from scratch)": ("from_scratch_solve_s*1000",),
            "speedup": ("speedup_vs_from_scratch",),
            "events": ("events",),
            "revisions": ("revisions",),
        },
    ),
    ("mix", "C", "threaded rps", "async rps", "speedup"): Spec(
        bench="BENCH_service.json",
        keys=("mix", "C"),
        row=lambda cells: f"scales.paper.mixes.{_MIXES[cells[0]]}.concurrency.{cells[1]}",
        columns={
            "threaded rps": ("threaded.throughput_rps",),
            "async rps": ("async.throughput_rps",),
            "speedup": ("speedup",),
        },
    ),
    (
        "scale",
        "size (m, \\|Ew\\|, n)",
        "kernel µs/sweep (reference → kernel)",
        "CG s/solve (reference → incremental)",
        "CG speedup",
    ): Spec(
        bench="BENCH_fastpath.json",
        keys=("scale",),
        row=lambda cells: f"scales.{cells[0]}",
        columns={
            "size (m, \\|Ew\\|, n)": ("size.0", "size.1", "size.2"),
            "kernel µs/sweep (reference → kernel)": (
                "kernel.reference_us_per_sweep",
                "kernel.kernel_us_per_sweep",
            ),
            "CG s/solve (reference → incremental)": (
                "critical_greedy.reference_s_per_solve",
                "critical_greedy.incremental_s_per_solve",
            ),
            "CG speedup": ("critical_greedy.speedup",),
        },
    ),
}


@dataclass(frozen=True)
class Table:
    line: int
    section: str  # the prose between the previous heading and the table
    header: tuple[str, ...]
    rows: list[list[str]]


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in _CELL_SPLIT.split(line.strip())[1:-1]]


def _tables(text: str) -> list[Table]:
    tables: list[Table] = []
    lines = text.splitlines()
    section: list[str] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("#"):
            section = []
        if line.startswith("|") and i + 1 < len(lines) and lines[i + 1].startswith("|-"):
            start = i
            i += 2
            rows = []
            while i < len(lines) and lines[i].startswith("|"):
                rows.append(_cells(lines[i]))
                i += 1
            tables.append(Table(start + 1, "\n".join(section), tuple(_cells(line)), rows))
            section = []
            continue
        section.append(line)
        i += 1
    return tables


def _numbers(cell: str) -> list[str]:
    """The numbers printed in a cell, ignoring code spans like `/v1/solve`."""
    return _NUMBER.findall(_CODE.sub("", cell))


def _lookup(data: object, path: str) -> float:
    path, _, factor = path.partition("*")
    node = data
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]  # type: ignore[index]
    return float(node) * float(factor or 1)  # type: ignore[arg-type]


def _printed(value: float, token: str) -> str:
    decimals = len(token.partition(".")[2])
    return f"{value:.{decimals}f}"


TABLES = _tables(DOC.read_text(encoding="utf-8"))
MEASURED = [t for t in TABLES if any(_numbers(c) for row in t.rows for c in row)]


def test_the_doc_has_measured_tables():
    assert {t.header for t in MEASURED} == set(SPECS)


@pytest.mark.parametrize(
    "table",
    MEASURED,
    ids=[SPECS[t.header].bench if t.header in SPECS else f"line{t.line}" for t in MEASURED],
)
def test_table_numbers_match_their_benchmark_json(table):
    spec = SPECS.get(table.header)
    assert spec is not None, f"line {table.line}: no spec for measured table {table.header}"
    assert spec.bench in table.section, (
        f"line {table.line}: the table does not cite {spec.bench}"
    )
    data = json.loads((REPO / spec.bench).read_text(encoding="utf-8"))
    for cells in table.rows:
        base = spec.row(cells)
        for header, cell in zip(table.header, cells):
            if header in spec.keys:
                continue
            tokens = _numbers(cell)
            paths = spec.columns.get(header, ())
            assert len(tokens) == len(paths), (
                f"line {table.line}, {base}, {header!r}: {cell!r} has "
                f"{len(tokens)} numbers, the spec names {len(paths)}"
            )
            for token, path in zip(tokens, paths):
                value = _lookup(data, f"{base}.{path}")
                assert _printed(value, token) == token, (
                    f"line {table.line}: {header!r} of {base} prints {token}, "
                    f"but {spec.bench} has {path} = {value!r}"
                )
