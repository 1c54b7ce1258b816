"""Print the two numbers the design aim of ROADMAP.md tracks for the
cloudmap package: its line count (the total of `wc -l`) and its settable
values.

A settable value is a default a caller could override: the default of a
function or method parameter, or a class-body annotated assignment (a
dataclass field default), except a `ClassVar` and a
`field(default_factory=...)`. Standard library only; run from anywhere:

    python tools/design_counts.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cloudmap"


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return ast.unparse(annotation).split(".")[-1] == "ClassVar"


def _is_default_factory(value: ast.expr) -> bool:
    return (isinstance(value, ast.Call)
            and any(k.arg == "default_factory" for k in value.keywords))


def settable_values(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         and not _is_classvar(s.annotation)
                         and not _is_default_factory(s.value)
                         for s in node.body)
    return count


def main() -> None:
    files = sorted(PACKAGE.glob("*.py"))
    sources = [f.read_bytes() for f in files]
    lines = sum(s.count(b"\n") for s in sources)
    settable = sum(settable_values(ast.parse(s, filename=str(f)))
                   for f, s in zip(files, sources))
    print(f"lines {lines}")
    print(f"settable values {settable}")


if __name__ == "__main__":
    main()
