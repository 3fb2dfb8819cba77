"""Count the lines of each module of ``src/tefal``: total, docstring and code.

Docstring lines are those spanned by a module, class or function docstring
(found with ``ast``).  Code lines are the non-blank lines that are neither
docstring lines nor whole-line comments (found with ``tokenize``).  The
rest are blank lines and comments.  Run from anywhere:

    python tools/src_lines.py [--base DIR]

With ``--base``, each row also gives the counts of ``DIR/src/tefal`` (say,
a ``git archive`` of another commit) and this checkout's difference from
them; a module missing on one side counts 0 lines there.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tefal"
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int, int]:
    """``(total, docstring, code)`` lines of one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, DEFINITIONS) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            doc.update(range(first.lineno, first.end_lineno + 1))
    lines = source.splitlines()
    comments = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT
                and lines[tok.start[0] - 1].strip().startswith("#")}
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and i not in doc and i not in comments)
    return len(lines), len(doc), code


def counts(src: Path) -> dict[str, tuple[int, int, int]]:
    """``{module: (total, docstring, code)}`` for each module in ``src``."""
    return {path.stem: count(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


def main(argv=()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="a checkout to compare with")
    args = parser.parse_args(argv)
    here = counts(SRC)
    base = None if args.base is None else counts(args.base / "src" / "tefal")
    if base == {}:
        parser.error(f"{args.base / 'src' / 'tefal'} holds no module")
    columns = ["total", "doc", "code"]
    if base is not None:
        columns = [f"base_{c}" for c in columns] + columns + [f"diff_{c}" for c in columns]
    rows = []
    for name in sorted(set(here) | set(base or {})):
        now = here.get(name, (0, 0, 0))
        if base is not None:
            then = base.get(name, (0, 0, 0))
            now = then + now + tuple(a - b for a, b in zip(now, then))
        rows.append((name, *now))
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    print(f"{'module':12s}" + "".join(f" {c:>10s}" for c in columns))
    for name, *values in rows:
        cells = [f"{v:+d}" if c.startswith("diff_") else str(v)
                 for c, v in zip(columns, values)]
        print(f"{name:12s}" + "".join(f" {cell:>10s}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
