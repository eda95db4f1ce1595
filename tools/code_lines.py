"""Count the code lines of Python modules: lines that hold code, not blank,
comment or docstring lines.

    python tools/code_lines.py src/bb84sim/*.py tests/*.py
    python tools/code_lines.py --base origin/main src/bb84sim/*.py

With --base REF it also prints each module's count at the git revision REF
and the net change to the working tree; a module missing on one side counts
0 there.  A docstring is the string that opens a module, class or function
body, found with `ast`; comments and blank lines are found with `tokenize`.
"""

import argparse
import ast
import io
import subprocess
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def source_at(ref: str, path: str):
    shown = subprocess.run(["git", "show", f"{ref}:{path}"], capture_output=True, text=True)
    return shown.stdout if shown.returncode == 0 else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args()
    totals = [0, 0]
    for path in args.paths:
        try:
            with open(path, encoding="utf-8") as fh:
                now = code_lines(fh.read())
        except FileNotFoundError:
            now = 0
        totals[0] += now
        if args.base is None:
            print(f"{now:6d}  {path}")
            continue
        base = source_at(args.base, path)
        before = 0 if base is None else code_lines(base)
        totals[1] += before
        print(f"{before:6d} -> {now:6d}  {now - before:+6d}  {path}")
    if args.base is None:
        print(f"{totals[0]:6d}  total")
    else:
        print(f"{totals[1]:6d} -> {totals[0]:6d}  {totals[0] - totals[1]:+6d}  total")


if __name__ == "__main__":
    main()
