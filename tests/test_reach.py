"""Which library functions the command line never reaches.

A fresh interpreter runs ``chaincat-verify`` on ``--list``, on every check
at n=3 in both formats and on the five Cayley exports at n=3, with a call
tracer on.  Every module-level function and class method of the package,
read from its source, must then either have been entered or be pinned
below with the reason it stays.  New code that nothing reaches fails this
test until it is wired into a check or given a reason here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import chaincat
from chaincat.verify import SELECTORS

PACKAGE = Path(chaincat.__file__).resolve().parent

UNREACHED = {
    # public API that the README or the tests use, pickling and repr
    # included
    "chain.BlockMap.is_identity",
    "chain.OPMap.__mul__",
    "chain.OPMap.constant",
    "chain.OPMap.identity",
    "chain.OPMap.is_idempotent",
    "chain.OrderedPartition.__getnewargs__",
    "chain.OrderedPartition.__repr__",
    "chain.OrderedPartition.identity",
    "chain.SubMap.is_identity",
    "chain.Subset.full",
    "chain.Subset.of",
    "chain.green",
    "cones.mset",
    "powerset.cone_to_opmap",
    # failure path only: entered when a check fails, a build raises (the
    # row scan runs only once Light's test has failed), a cone or carrier
    # value is mutated or a value is added or repeated like a tuple
    "chain._TupleValue.__add__",
    "chain._TupleValue.__delattr__",
    "chain._TupleValue.__mul__",
    "chain._TupleValue.__rmul__",
    "chain._TupleValue.__setattr__",
    "cones.Cone.__repr__",
    "cones.Cone.__setattr__",
    "cones.cone_json",
    "semigroups.AssociativityError.__init__",
    "semigroups.ClosureError.__init__",
    "semigroups._check_rows_associative",
    "verify._build_error_elements",
    # boundary-only validation: every map the library builds is built
    # trusted, so only values from outside reach these
    "chain.BlockMap.__new__",
    "chain.OrderedPartition._make",
    "chain.SubMap.__new__",
    "chain._TupleValue._make",
    # reference constructions the tests compare the library against: F's
    # fullness witness and the literal sandwich-set triples
    "chain.extend_by_idempotent",
    "ideals.l_morphism_from_triple",
    "ideals.r_morphism_from_triple",
}

SCRIPT = """
import json, sys
from pathlib import Path

package, argv_lists, out = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
entered = set()

def tracer(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        entered.add((Path(code.co_filename).stem, code.co_firstlineno))

sys.settrace(tracer)
from chaincat.cli import main
for argv in argv_lists:
    if main(argv) != 0:
        sys.exit(f"{argv} did not exit 0")
sys.settrace(None)
Path(out).write_text(json.dumps(sorted(entered)))
"""


def _defined() -> dict[tuple[str, int], str]:
    """(module, first line) of each function and method, by dotted name;
    the first line is a decorator's when there is one, as on a code object.
    Abstract methods have no body to reach and are left out."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(module, tree.body)]
        scopes += [(f"{module}.{c.name}", c.body) for c in tree.body if isinstance(c, ast.ClassDef)]
        for prefix, body in scopes:
            for node in body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(ast.unparse(d) == "abstractmethod" for d in node.decorator_list):
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(module, first)] = f"{prefix}.{node.name}"
    return out


def test_every_function_is_reached_or_pinned(tmp_path):
    argv_lists = [["--list"]]
    argv_lists += [["--check", "all", "--n", "3", "--format", fmt] for fmt in ("text", "json")]
    argv_lists += [["--export-cayley", s, "--n", "3", "--out", str(tmp_path / f"{s}.json")] for s in SELECTORS]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "entered.json"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PACKAGE) + os.sep, json.dumps(argv_lists), str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(pair) for pair in json.loads(out.read_text())}
    defined = _defined()
    unreached = {name for key, name in defined.items() if key not in entered}
    assert unreached == UNREACHED
