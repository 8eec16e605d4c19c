"""Checks on the source tree itself rather than on its results.

bench/layers.py wraps each name in TRACED by module attribute; a name that
moved would leave its per-layer metric silently at zero.  The file is only
read here, never changed.  The package's modules import at module level,
nothing they do not use and no private name of a sibling, the brute-force
oracle imports none of the closed-form modules or routes and names none of
the unit routes, its ring adapters leave the unit test and the unit walks
to the base class, each ring kind has one product, one helper picks each
group ring's unit route, the oracle asks no ring its kind, its sweeps share
one orbit walk, sums of packed multiples go through PackedRows.combination,
one linalg routine tests invertibility by leading entries, a join element
has one coordinate layout, and every demo script, README example and the
installed console script run cleanly.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "bench" / "layers.py"
SRC = ROOT / "src" / "joinrings"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for mod_name, names in layers.TRACED.items():
        module = importlib.import_module(f"joinrings.{mod_name}")
        for name in names:
            if (mod_name, name) == ("groupring", "mul"):
                target = module.GroupRingElem.__dict__.get("__mul__")
            else:
                target = vars(module).get(name)
            assert callable(target), f"joinrings.{mod_name}.{name}"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.

    With ``from __future__ import annotations`` no annotation needs quotes,
    so a name used only inside a quoted one is reported too.
    """
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import | ast.ImportFrom)
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_imports_at_module_level():
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        nested += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import | ast.ImportFrom) and node not in tree.body
        ]
    assert not nested, f"imports below module level: {nested}"


def test_no_unused_imports():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        unused = _unused_imports(path.read_text())
        assert not unused, f"{path.name}: unused imports {unused}"


def test_no_module_imports_a_private_name_from_a_sibling():
    # a kernel another module needs is bound on the object that owns it
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("joinrings"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"private names imported from a sibling: {private}"


def _imported_modules(source: str) -> set[str]:
    """Last dotted part of every module a source imports, and of every name
    it imports from a package (``from . import ntheory`` gives ntheory)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.rsplit(".", 1)[-1])
            out |= {alias.name for alias in node.names}
    return out


CLOSED_FORM_ROUTES = {
    "gr_unit_count", "join_unit_count", "wedderburn_abelian",
    "Structure", "join_structure", "gl_order",
    "gr_is_unit", "gr_inverse", "join_is_unit", "join_inverse",
}


def test_oracle_shares_no_code_with_the_closed_forms():
    # the brute-force route checks ntheory, arith and zeta, and the unit
    # counts and unit tests of groupring and joinring; importing any of them
    # would let both routes agree while sharing the same fault
    imported = _imported_modules((SRC / "oracle.py").read_text())
    shared = imported & ({"ntheory", "arith", "zeta"} | CLOSED_FORM_ROUTES)
    assert not shared, f"oracle.py imports {sorted(shared)}"


def test_zeta_shares_no_code_with_the_unit_counts():
    # rooted_equivalence_report compares the zeta pole order with
    # join_unit_count, which reads the Structure record of join_structure and
    # reaches ord_mod through wedderburn_abelian; zeta must find its orbits
    # from the group table alone
    imported = _imported_modules((SRC / "zeta.py").read_text())
    shared = imported & {"ord_mod", "wedderburn_abelian", "groupring", "joinring",
                         "Structure", "join_structure", "gl_order"}
    assert not shared, f"zeta.py imports {sorted(shared)}"


def test_ring_adapters_leave_the_unit_walk_to_the_base_class():
    # every adapter gives unit_matrix; a copy of is_unit or of the packed
    # basis and its eliminations could test a different matrix from the one
    # the sweeps sum
    own = [
        f"{path.name}:{item.lineno} {node.name}.{item.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith("EnumerableRing") for base in node.bases)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and item.name in {"is_unit", "_invertible", "_basis", "_pack"}
    ]
    assert not own, f"EnumerableRing subclasses define {own}"


def test_each_ring_kind_has_one_product():
    # an adapter multiplies by its `product` on coordinate tuples alone; an
    # add or mul beside it would be a second product path that could
    # disagree with the first
    own = [
        f"{path.name}:{item.lineno} {node.name}.{item.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and (node.name == "EnumerableRing"
             or any(ast.unparse(base).endswith("EnumerableRing") for base in node.bases))
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in {"add", "mul"}
    ]
    assert not own, f"EnumerableRing or a subclass defines {own}"
    # the group-ring products are named only where they are built (ffield.py)
    # and in the one factory that picks between them, so that no caller can
    # take the table route where the factory picked the Kronecker one
    kernels = {"convolve", "kronecker", "_kronecker"}
    named = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ffield.py":
            continue
        tree = ast.parse(path.read_text())
        factory = set()
        if path.name == "groupring.py":
            (node,) = [n for n in tree.body
                       if isinstance(n, ast.FunctionDef) and n.name == "gr_multiplier"]
            factory = set(map(id, ast.walk(node)))
        named += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in factory
            and kernels & {getattr(node, field, None) for field in ("id", "attr", "name")}
        ]
    assert not named, f"a group-ring kernel is named outside gr_multiplier at {named}"
    # the join blocks and the oracle's group rings bind their product there
    for module, cls in (("joinring.py", "JoinShape"), ("oracle.py", "GroupRingEnum")):
        (node,) = [n for n in ast.parse((SRC / module).read_text()).body
                   if isinstance(n, ast.ClassDef) and n.name == cls]
        calls = {ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
        assert "gr_multiplier" in calls, f"{cls} does not bind its product by gr_multiplier"


def _scopes_with(node: ast.AST, scope: str, found) -> set[str]:
    """The functions and methods under `node` holding a node for which
    `found` is true."""
    readers = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef | ast.ClassDef):
            readers |= _scopes_with(child, f"{scope}.{child.name}", found)
        elif any(map(found, ast.walk(child))):
            readers.add(scope)
    return readers


def _package_scopes(found) -> set[str]:
    """The functions and methods of the package, prefixed by their module,
    holding a node for which `found` is true."""
    return set().union(*(_scopes_with(ast.parse(path.read_text()), path.stem, found)
                         for path in sorted(SRC.glob("*.py"))))


def _reads(attr: str):
    return lambda node: isinstance(node, ast.Attribute) and node.attr == attr


def test_sums_of_packed_multiples_go_through_combination():
    # PackedRows.combination is the one sum of c * row over packed rows; the
    # eliminations keep their memoised pivot updates, and any other reader
    # of packing.times would be a second such sum
    readers = {scope for scope in _package_scopes(_reads("times"))
               if not scope.startswith("ffield.")}
    allowed = {"linalg.rows_invertible", "linalg._row_reduce"}
    assert readers <= allowed, f"{sorted(readers - allowed)} read packing.times"
    assert readers == allowed, f"{sorted(allowed - readers)} no longer read packing.times"


def test_one_gauss_jordan_pass():
    # _row_reduce is the one Gauss-Jordan elimination: solve (and through
    # it inverse) and echelon_basis call it, and nothing else does
    assert _package_scopes(_calls({"_row_reduce", "linalg._row_reduce"})) == {
        "linalg.solve", "linalg.echelon_basis"}


def test_one_invertibility_test_reduces_by_leading_entries():
    # rows_invertible finds each row's leading entry by bit_length for every
    # field; a second reader in linalg.py would be a second invertibility test
    def calls_bit_length(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".bit_length")

    readers = _scopes_with(ast.parse((SRC / "linalg.py").read_text()), "linalg",
                           calls_bit_length)
    assert readers == {"linalg.rows_invertible"}, f"bit_length called in {sorted(readers)}"


def _calls(names: set[str]):
    return lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) in names


def _names(names: set[str]):
    return lambda node: bool(names & {getattr(node, "id", None), getattr(node, "attr", None)})


def test_one_helper_picks_the_unit_route():
    # groupring._unit_route alone builds the unit routes of a group ring,
    # once per ring, and only gr_is_unit and gr_inverse ask it, so that no
    # caller tests or inverts a unit on a route other than its ring's
    routes = {"_Circulant", "_Euclid", "_Conjugates", "_Index2"}
    assert _package_scopes(_calls(routes)) == {"groupring._unit_route"}
    assert (_package_scopes(_names({"_unit_route"}))
            == {"groupring.gr_is_unit", "groupring.gr_inverse"})


def _powers_on_a_table(node: ast.AST) -> bool:
    """A call of ``power`` whose multiply reads a Cayley table, by the
    attribute or by a local named for it."""
    return (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "power"
            and len(node.args) > 2
            and any((isinstance(n, ast.Attribute) and n.attr == "table")
                    or (isinstance(n, ast.Name) and n.id == "table")
                    for n in ast.walk(node.args[2])))


def test_each_shared_map_has_one_home():
    # h -> h^k is computed by FiniteGroup.power_map alone, the Bezout inverse
    # by poly.inverse alone, and join_decompose takes its Delta parts from
    # gr_decompose, so that no copy of one of them can drift from the others
    assert (_package_scopes(_reads("power_map"))
            == {"zeta._add_orbits", "groupring._Conjugates._conjugation", "oracle._power_maps"})
    tabled = {scope for scope in _package_scopes(_powers_on_a_table)
              if not scope.startswith("groups.")}
    assert not tabled, f"{sorted(tabled)} take powers on a Cayley table"
    assert (_package_scopes(_calls({"poly.inverse"}))
            == {"ffield.FieldCtx._bind_untabled.inv", "groupring._Euclid.inverse"})
    # the other readers of Euclid's remainders test a gcd and build no cofactor
    assert (_package_scopes(_calls({"euclid", "poly.euclid"}))
            == {"ffield._irreducible", "groupring._Euclid.is_unit", "poly.inverse"})
    # 1 - e_H is built on gr_decompose's path alone
    e_h_readers = _package_scopes(_names({"idempotent_eH"}))
    assert {"joinring.join_decompose", "joinring.join_idempotents"}.isdisjoint(e_h_readers)
    assert "joinring.join_decompose" in _package_scopes(_calls({"gr_decompose"}))


def _builds_the_pair_map(node: ast.AST) -> bool:
    """A comprehension over the pairs i != j of two of its own loop
    variables, or a dict comprehension reading some ``.n``, as the
    (i, j) -> coordinate map of a join's a_ij is built."""
    if not isinstance(node, ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp):
        return False
    bound = {ast.unparse(n) for g in node.generators for n in ast.walk(g.target)
             if isinstance(n, ast.Name)}
    pairs = any(isinstance(c, ast.Compare) and isinstance(c.ops[0], ast.NotEq)
                and {ast.unparse(c.left), ast.unparse(c.comparators[0])} <= bound
                for g in node.generators for c in g.ifs)
    return pairs or (isinstance(node, ast.DictComp)
                     and any(isinstance(n, ast.Attribute) and n.attr == "n"
                             for n in ast.walk(node)))


def test_a_join_element_has_one_layout():
    # a JoinElem is its coordinate tuple in the layout of from_vector, and
    # JoinShape alone maps each (i, j) to the coordinate of a_ij; a second
    # map or a second form of the element could drift from the first
    assert _package_scopes(_builds_the_pair_map) == {"joinring.JoinShape.__init__"}
    readers = {scope for scope in _package_scopes(_reads("_pairs"))
               if not scope.startswith("joinring.")}
    assert not readers, f"{sorted(readers)} read a shape's _pairs"
    defined = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "to_vector"]
    assert not defined, f"to_vector defined at {defined}"
    (shape,) = [n for n in ast.parse((SRC / "joinring.py").read_text()).body
                if isinstance(n, ast.ClassDef) and n.name == "JoinShape"]
    (from_vector,) = [n for n in shape.body
                      if isinstance(n, ast.FunctionDef) and n.name == "from_vector"]
    calls = {ast.unparse(n.func).split(".")[0] for n in ast.walk(from_vector)
             if isinstance(n, ast.Call)}
    assert "GroupRingElem" not in calls, "from_vector builds the blocks"


def test_oracle_tests_units_on_its_own_matrices():
    # the oracle's unit test is the elimination of its unit_matrix, the
    # circulant of a group ring; a call of the closed-form unit routes, by
    # any name, would let both sides of a check run the same code
    tree = ast.parse((SRC / "oracle.py").read_text())
    found = _names({"gr_is_unit", "gr_inverse", "_unit_route"})
    named = [f"oracle.py:{node.lineno}" for node in ast.walk(tree) if found(node)]
    assert not named, f"oracle.py names a closed-form unit route at {named}"


def _steps_by_a_power(node: ast.AST) -> bool:
    """A range stepping by a power, as the walk over the scalar classes'
    members of lowest nonzero coordinate 1 steps by q^(t+1)."""
    return (isinstance(node, ast.Call) and ast.unparse(node.func) == "range"
            and len(node.args) == 3 and isinstance(node.args[2], ast.BinOp)
            and isinstance(node.args[2].op, ast.Pow))


def test_oracle_sweeps_share_one_orbit_walk():
    # the unit count, the unit listing and the radical take their orbits of
    # F_q^x times the symmetries from one helper, and the order sweep alone
    # applies the automorphisms, so that no sweep can walk other orbits
    walks = _package_scopes(_steps_by_a_power)
    assert walks == {"oracle._orbits"}, f"scalar classes walked in {sorted(walks)}"
    assert _package_scopes(_reads("symmetries")) == {"oracle._orbits"}
    assert _package_scopes(_reads("automorphisms")) == {"oracle._orders"}


def test_oracle_asks_rings_rather_than_testing_their_kind():
    # the adapters give their symmetries and unit matrices through methods;
    # an isinstance on a ring kind in oracle.py would let one kind go its own way
    tree = ast.parse((SRC / "oracle.py").read_text())
    checks = [
        f"oracle.py:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in {"isinstance", "type"}
    ]
    assert not checks, f"oracle.py dispatches on type: {checks}"


def test_every_error_class_is_raised_in_some_test():
    # a class that no test expects may be raised nowhere, or wrapped away
    defined = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    expected = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.raises"
                    and node.args):
                expected |= {n.id for n in ast.walk(node.args[0]) if isinstance(n, ast.Name)}
    assert defined - expected == set()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demos_run(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_console_script_runs(capsys, monkeypatch):
    # the [project.scripts] entry that `pip install .` makes the `joinrings`
    # command (read without tomllib, which Python 3.10 lacks)
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^joinrings = "([\w.]+):(\w+)"$', section, re.M)
    main = getattr(importlib.import_module(target[0]), target[1])
    monkeypatch.setattr(sys, "argv", ["joinrings", "--json", "field", "F9"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["modulus"] == "x^2+1"


def _readme_block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _readme_commands() -> list[tuple[str, list[str]]]:
    """Each `$ joinrings ...` line of the CLI section with the lines shown after it."""
    examples: list[tuple[str, list[str]]] = []
    for line in _readme_block("CLI", "sh").splitlines():
        if line.startswith("$ joinrings "):
            examples.append((line[len("$ joinrings "):], []))
        elif line:
            examples[-1][1].append(line)
    return examples


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("command, shown", README_COMMANDS, ids=[c for c, _ in README_COMMANDS])
def test_readme_cli_examples(capsys, command, shown):
    from joinrings.cli import run

    assert run(shlex.split(command)) == 0
    out = capsys.readouterr().out
    # the shown lines run on in the output, and "..." stands for any lines
    pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n"
                      for line in shown)
    assert re.search(rf"(?m)^{pattern}", out), out


def test_readme_library_quick_start():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_readme_block("Library quick start", "python"), {})
    assert out.getvalue() == "True 270\n"
