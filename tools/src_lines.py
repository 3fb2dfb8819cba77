"""Count the lines of each module of ``src/tefal``: total, docstring and code.

Docstring lines are those spanned by a module, class or function docstring
(found with ``ast``).  Code lines are the non-blank lines that are neither
docstring lines nor whole-line comments (found with ``tokenize``).  The
rest are blank lines and comments.  Run from anywhere:

    python tools/src_lines.py
"""

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


def main() -> int:
    rows = [(path.stem, *count(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    print(f"{'module':12s} {'total':>6s} {'doc':>6s} {'code':>6s}")
    for name, total, doc, code in rows:
        print(f"{name:12s} {total:6d} {doc:6d} {code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
