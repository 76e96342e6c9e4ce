#!/usr/bin/env python3
"""Print the size of each module of ``src/conndel`` and the total, in two
measures: its line count (what ``wc -l`` reports) and its code lines, the
lines that hold a ``tokenize`` token other than a comment, a docstring or
a line break.  A docstring is a string statement that opens a module, a
class or a function body.

Usage: python scripts/code_lines.py [PACKAGE_DIR]   (default: src/conndel)
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """The lines that hold a token other than a comment, a docstring or a
    line break."""
    lines = set()
    # A string is a docstring when it is the first statement of a module
    # or of a block: it follows the file's start, an INDENT, or a NEWLINE
    # that ends a ``def``/``class`` header.
    after_header = True
    header = False
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        kind = tok.type
        if kind in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING):
            continue
        if kind == tokenize.STRING and after_header:
            after_header = False
            continue
        if kind == tokenize.INDENT:
            continue
        if kind == tokenize.NEWLINE:
            after_header = header
            header = False
            continue
        if kind == tokenize.NAME and tok.string in ("def", "class") and not header:
            header = True
        after_header = False
        if kind not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = Path(__file__).resolve().parent.parent
    parser.add_argument("package", nargs="?", default=root / "src" / "conndel", type=Path)
    args = parser.parse_args()
    total_lines = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(args.package.glob("*.py")):
        text = path.read_text()
        lines, code = len(text.splitlines()), code_lines(text)
        total_lines += lines
        total_code += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
