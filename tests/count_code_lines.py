"""Print the lines of code in Python files, as ``wc -l`` prints lines.

A line counts if a token other than a comment, a line break or an indent
spans it, and it is not part of a module, class or function docstring. So
blank lines, comment lines and docstrings do not count. Standard library
only; run as ``python tests/count_code_lines.py src/transit6/*.py``.
"""

import ast
import io
import sys
import tokenize

# Tokens that span no code: ENCODING and ENDMARKER sit outside the text.
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: str) -> int:
    with open(path, "rb") as f:
        source = f.read()
    lines = {
        n
        for t in tokenize.tokenize(io.BytesIO(source).readline)
        if t.type not in LAYOUT
        for n in range(t.start[0], t.end[0] + 1)
    }
    for node in ast.walk(ast.parse(source, path)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:7d} {path}")
    print(f"{total:7d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
