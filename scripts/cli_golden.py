#!/usr/bin/env python3
"""Golden transcripts of the ``gawb`` command line.

``tests/golden/cli.txt`` holds one case per command line: its argv, exit
code, stdout and stderr, byte for byte.  ``tests/test_cli.py`` replays every
case through ``cli.main`` in process and compares.  This script rewrites the
file from the current code; a change that alters a case is a change of
output and is listed case by case in ``CHANGES.md``.

    PYTHONPATH=src python3 scripts/cli_golden.py

File format: a case starts with ``$ gawb`` and its argv, quoted by
``shlex.join``, then ``exit N``, then a ``stdout`` and a ``stderr`` block.
Each line of a block is prefixed with ``|`` (and a space unless the line is
empty); a block that does not end in a newline ends with the line
``\\ no newline at end``.  Lines starting with ``#`` and blank lines between
cases are ignored.
"""

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

from gawb import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli.txt"
HEADER = """\
# Golden transcripts of the gawb command line: argv, exit code, stdout, stderr.
# Replayed byte for byte by tests/test_cli.py.  Regenerate with
#     PYTHONPATH=src python3 scripts/cli_golden.py
"""

PRES = "vars: x,y,u,v; relations: x^2*v - y^2*u - 1"
PRES_INV = "vars: x,y,u,v; invert: x; relations: x^2*v - y^2*u - 1"
DER = "der: u -> x^2; v -> y^2; x -> 0; y -> 0"
MATRIX = '[["u^4","u^2"],["0","1"]]'

# The README's "Command line" block, one case per line, each also under --json.
README_CASES = [
    ["eval", "x^2*v - y^2*u - 1", "--vars", "x,y,u,v"],
    ["cocycle", "class", "x^-2*y^-1 + x"],
    ["cocycle", "normalize", "x^-3*y^-1 + 2*x^-1*y^-1"],
    ["cocycle", "coboundary", "x^-3*y"],
    ["affine-cert", "2", "2", "x*y"],
    ["lnd", "check", "--presentation", PRES, "--derivation", DER],
    ["lnd", "exp", "--presentation", PRES, "--derivation", DER],
    ["lnd", "slice", "--presentation", PRES_INV, "--derivation", DER, "--element", "u*x^-2"],
    ["splitting", "--matrix", MATRIX],
    ["h0", "--matrix", MATRIX, "--j", "2"],
    ["intersect", "--surface", "F2", "--d1", "1,3", "--d2", "1,3"],
    ["intersect", "--surface", "Scroll(3,1)", "--d1", "1,0", "--d2", "1,-2"],
    ["classify", "mn", "2", "2", "3", "1"],
    ["classify", "fg", "x^2+y^2", "y^3"],
    ["verify-paper", "--only", "example-x22-cocycle-class"],
]

# Paths the README lines above leave out: rendering without a variable list,
# rational and Laurent coefficients, trivial classes, Case 2 certificates.
MORE_CASES = [
    ["eval", "x^-3*y^-1 + 5/16*v^2*x - (x - y)^2 + 2/4"],
    ["eval", "(1/2)*x + (1/2)*x - 3*u*v^-2", "--vars", "v,u,x"],
    ["--json", "eval", "-(a_1 + 2*b)^3*c^-1", "--vars", "c,b,a_1"],
    ["cocycle", "class", "x + y^-1 + x^-1*y"],
    ["cocycle", "normalize", "x + y^-1 + x^-1*y"],
    ["cocycle", "coboundary", "x^-2*y^-1 + 3/2*x^-1*y^-3"],
    ["--json", "cocycle", "coboundary", "x^-1 + y^-2 + x^-3*y^2"],
    ["affine-cert", "2", "2", "y"],
    ["--json", "affine-cert", "3", "2", "2*x*y + 1/3*x^2*y + y"],
    ["h0", "--matrix", '[["u^3","u^-1 + 2*u"],["0","u^-1"]]', "--j", "1"],
    ["--json", "h0", "--matrix", '[["u^3","u^-1 + 2*u"],["0","u^-1"]]', "--j", "1"],
    ["h0", "--matrix", MATRIX, "--j", "-3"],
    ["--json", "h0", "--matrix", MATRIX, "--j", "-3"],
    ["h0", "--matrix", '[["u^3","u^-1 + 2*u"],["0","u^-1"]]', "--j", "2"],
    ["--json", "h0", "--matrix", '[["u^3","u^-1 + 2*u"],["0","u^-1"]]', "--j", "2"],
    ["--json", "lnd", "exp", "--presentation", "vars: x,y,z,u,v; relations: x^2*v - y*u - z^3",
     "--derivation", "der: u -> x^2; v -> y; x -> 0; y -> 0; z -> 0"],
    ["eval", "x ^ - 2"],
    # lex orders u + x*t where degrevlex gives x*t + u
    ["lnd", "exp", "--presentation", "vars: u,v,x,y; relations: x*v - y*u - 1; order: lex",
     "--derivation", "der: u -> x; v -> y; x -> 0; y -> 0"],
]

# One case per parse-error class, and one per engine bound.
ERROR_CASES = [
    ["eval", "x + $"],                      # unexpected character
    ["eval", "x y"],                        # unexpected token
    ["eval", "x + "],                       # unexpected end of input
    ["eval", "(x + 1"],                     # expected ')'
    ["eval", "x^y"],                        # expected integer exponent
    ["eval", "1/x"],                        # expected integer denominator
    ["eval", "3/0*x"],                      # zero denominator
    ["eval", "x + zz", "--vars", "x"],      # undeclared variable
    ["eval", "(x + y)^-1"],                 # negative power of a sum
    ["affine-cert", "2", "2", "x*u"],       # undeclared in a subcommand's grammar
    ["--groebner-budget", "1", "lnd", "check", "--presentation",
     "vars: x,y,u,v; relations: x^2*v - y^2*u - 1, x*u - y", "--derivation", DER],
    ["--nilpotency-bound", "1", "lnd", "check", "--presentation", PRES, "--derivation", DER],
    ["--power-bound", "1", "verify-paper", "--only", "zmnk-family"],
    ["intersect", "--surface", "G2", "--d1", "1,3", "--d2", "1,3"],
    ["lnd", "slice", "--presentation", PRES, "--derivation", DER],
    ["eval", "1 / 0"],                      # zero denominator, spaced
    ["eval", "(x + y) ^ -1"],               # negative power of a sum, spaced
    ["eval", "x", "--vars", "x,x"],         # repeated variable
    ["eval", "x", "--vars", "x,y z"],       # variable that is not an identifier
    ["eval", "x", "--vars", ""],            # no variables
    ["lnd", "check", "--presentation", "vars: x,y,u,v; relation: x^2*v - y^2*u - 1",
     "--derivation", DER],                  # unknown section
    ["lnd", "check", "--presentation", PRES + "; relations: x", "--derivation", DER],
    ["lnd", "check", "--presentation", PRES, "--derivation", DER + "; u -> 0"],
    ["splitting", "--matrix", "5"],         # matrix that is not an array
    ["h0", "--matrix", '[[null,"1"],["0","1"]]', "--j", "0"],   # entry that is not a string
    ["splitting", "--matrix", '[[true,"u"],["0","1"]]'],        # boolean entry
    ["lnd", "exp", "--presentation", "vars: u,v,x,y; relations: x*v - y*u - 1; order: grevlex",
     "--derivation", "der: u -> x; v -> y; x -> 0; y -> 0"],   # unknown term order kind
]

CASES = (
    [argv for readme in README_CASES for argv in (readme, ["--json", *readme])]
    + MORE_CASES
    + ERROR_CASES
)


def run_case(argv):
    """``(exit code, stdout, stderr)`` of ``cli.main(argv)`` in this process,
    with every ``GAWB_*`` override unset."""
    saved = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith(cli.ENV_PREFIX)}
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as e:
                code = e.code
    finally:
        os.environ.update(saved)
    return code, out.getvalue(), err.getvalue()


def _block(text):
    lines = text.split("\n")
    last = lines.pop()  # "" when the text ends in a newline
    out = [f"| {line}" if line else "|" for line in lines]
    if last:
        out += [f"| {last}", "\\ no newline at end"]
    return out


def format_case(argv, code, stdout, stderr) -> str:
    lines = [f"$ gawb {shlex.join(argv)}", f"exit {code}", "stdout", *_block(stdout),
             "stderr", *_block(stderr)]
    return "\n".join(lines) + "\n"


def read_cases(path=GOLDEN):
    """``[(argv, code, stdout, stderr), ...]`` in file order."""
    cases = []
    streams = None
    for line in path.read_text(encoding="utf-8").split("\n"):
        if line.startswith("$ gawb "):
            streams = {"stdout": [], "stderr": []}
            cases.append([shlex.split(line[len("$ gawb "):]), None, streams])
        elif line.startswith("exit "):
            cases[-1][1] = int(line[len("exit "):])
        elif line in ("stdout", "stderr"):
            current = streams[line]
        elif line.startswith("|"):
            current.append(line[2:] + "\n")
        elif line == "\\ no newline at end":
            current[-1] = current[-1][:-1]
    return [(argv, code, "".join(s["stdout"]), "".join(s["stderr"])) for argv, code, s in cases]


def main() -> int:
    text = HEADER + "".join("\n" + format_case(a, *run_case(a)) for a in CASES)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
