"""Wedge-column reads go through ``BetheState.columns``.

A column A_.(Q) of the C-ordered table is N! entries N! apart; the
transpose held by ``BetheState.columns`` stores it as one contiguous row.
This scan fails on any ``.table.T`` in the package, the form that read
the strided column, outside the ``columns`` property that makes the copy.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "pointbethe").glob("*.py"))


def strided_column_reads(source: str) -> list[int]:
    """Line numbers of every ``<expr>.table.T`` attribute chain in source,
    except in the body of a function named ``columns``."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "columns"
              for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "T"
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "table"
                  and id(node) not in exempt)


def test_strided_column_reads_finds_every_table_transpose():
    source = ("a = state.table.T[q]\nb = state.columns[q]\nc = table.T\n"
              "d = f(s).table.T\ne = s.table.T.copy()\n"
              "def columns(self):\n    return self.table.T\n")
    assert strided_column_reads(source) == [1, 4, 5]


def test_no_module_reads_columns_of_the_table():
    found = {str(path.relative_to(ROOT)): strided_column_reads(path.read_text())
             for path in MODULES}
    assert {path: lines for path, lines in found.items() if lines} == {}
