import ast
import copy
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import assoc2
from assoc2 import twoassoc
from assoc2.twoassoc import (TwoBracket, _table, enumerate_Wn, face_two_bracketings, top_element,
                             validate_two_bracketing)


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so an invariant written as one silently goes away
    modules = sorted(Path(assoc2.__file__).parent.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_importing_the_cli_loads_no_pickle_or_process_pool():
    # every command pays for its imports: the desk audit's worker imports pickle when it forks
    src = str(Path(assoc2.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, assoc2.cli; "
             "print(sorted({'pickle', 'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_only_poset_reads_the_private_rows_of_a_ranked_poset():
    # the order, its covers and its closure check live in poset.py alone
    private = {"_up", "_upper", "_down", "_minimal", "_maximal", "_index", "_rank_masks", "_even", "_odd"}
    modules = [path for path in sorted(Path(assoc2.__file__).parent.glob("*.py"))
               if path.name != "poset.py"]
    assert modules
    found = [f"{path.name}:{node.lineno} {node.attr}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert found == []


def _names_used(path: Path) -> dict[str, set[str]]:
    """Module-level function or class name -> every name and attribute its body mentions."""
    tree = ast.parse(path.read_text(), str(path))
    return {node.name: {n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_enumeration_and_count_oracles_share_no_code():
    # enumerate_Wn is left out on purpose: it cross-checks its faces against count_W
    package = Path(assoc2.__file__).parent
    used = _names_used(package / "twoassoc.py")
    enumeration = {"_gen_fiber", "_screen_stacks"}
    recurrence = {"_stacks", "_fiber_poly", "_splits", "_convolve", "count_W"}
    assert enumeration | recurrence | {"dim_2concat"} <= set(used)
    for name in enumeration:
        assert used[name] & recurrence == set(), name
    for name in ("_stacks", "_fiber_poly"):
        assert used[name] & (enumeration | {"dim_2concat"}) == set(), name

    series = ast.parse((package / "series.py").read_text())
    imported = [node.module or "" for node in ast.walk(series) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(series)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert imported and not any("twoassoc" in name for name in imported)


def test_validation_shares_no_code_with_the_generator_or_the_recurrence():
    # re-validation must stay independent of the generator whose faces it re-checks
    used = _names_used(Path(assoc2.__file__).parent / "twoassoc.py")
    checked = {"validate_two_bracketing", "_valid_face", "_bracketing_frame", "_node_ok",
               "_decide_node", "_TwoBracketTable", "_table", "_stack_ordered", "_stack_ok",
               "_face_label", "_tree_text"}
    generator = {"_gen_fiber", "_screen_stacks", "dim_2concat", "_stacks",
                 "_fiber_poly", "count_W"}
    assert checked | generator <= set(used)
    for name in checked:
        assert _reached(used, name) & generator == set(), name


def test_the_generator_shares_no_code_with_validation_or_the_recurrence():
    # the converse: the faces are generated without reading what re-validates them
    used = _names_used(Path(assoc2.__file__).parent / "twoassoc.py")
    checker = {"_table", "_TwoBracketTable", "_valid_face", "_bracketing_frame", "_node_ok",
               "_decide_node", "validate_two_bracketing", "_face_label", "_stacks",
               "_fiber_poly", "_splits", "_convolve", "count_W"}
    assert checker <= set(used)
    for name in ("_gen_fiber", "_screen_stacks"):
        reached = _reached(used, name)
        assert "_gen_fiber" in reached and reached & checker == set(), name


def test_enumeration_leaves_no_validation_state_behind():
    # the validation memo lives for one enumerate_Wn or validate_two_bracketing call:
    # the table gains and changes no field, and no helper keeps a process-wide cache;
    # the generator's screens memo goes with its enumeration too, so once W_n is
    # dropped the only 2-brackets left alive are the tables' own
    n = (2, 1)
    table = _table(n)
    before = copy.deepcopy(vars(table))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()  # freed by reference counting alone, with no collection pending
    try:
        P = enumerate_Wn(n)
        assert sum(1 for _face in face_two_bracketings(n)) == len(P)
        gone = weakref.ref(P)
        del P
        assert validate_two_bracketing(top_element(n))
        # the tables' own 2-brackets, and the copies of one table's kept in `before`
        owned = {id(x) for ids in [before["ids"], *(t.ids for t in twoassoc._TABLES.values())]
                 for x in ids}
        stray = [str(x) for x in gc.get_objects() if type(x) is TwoBracket and id(x) not in owned]
        assert gone() is None and stray == []
    finally:
        if enabled:
            gc.enable()
    assert vars(table) == before
    for name in ("validate_two_bracketing", "_valid_face", "_bracketing_frame", "_node_ok",
                 "_decide_node", "_stack_ok", "_stack_ordered"):
        assert not hasattr(getattr(twoassoc, name), "__wrapped__"), name


_MAPPINGS = {"dict", "defaultdict", "OrderedDict", "Counter", "ChainMap",
             "WeakValueDictionary", "WeakKeyDictionary"}


def test_the_two_bracket_tables_are_the_only_module_level_mapping():
    # enumerate_Wn keeps no W_n between calls and nothing holds one for it: no module
    # imports weakref, and no module-level name but _TABLES is bound to a mapping
    imports, mappings = [], []
    for path in sorted(Path(assoc2.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if (isinstance(node, ast.Import)
                        and any(alias.name == "weakref" for alias in node.names))
                    or (isinstance(node, ast.ImportFrom) and node.module == "weakref")]
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            func = value.func if isinstance(value, ast.Call) else None
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(value, (ast.Dict, ast.DictComp)) or called in _MAPPINGS:
                mappings += [f"{path.name}:{t.id}" for t in targets if isinstance(t, ast.Name)]
    assert imports == []
    assert mappings == ["twoassoc.py:_TABLES"]


def _reached(used: dict[str, set[str]], name: str) -> set[str]:
    """The module's own functions and classes that `name` mentions, followed transitively."""
    reached, todo = set(), [name]
    while todo:
        for other in used[todo.pop()] & set(used):
            if other not in reached:
                reached.add(other)
                todo.append(other)
    return reached


def test_only_the_table_constructor_writes_table_rows():
    # a table is complete before it is published and never changes, so readers take no lock
    fields = {"ids", "inside", "compatible", "below", "points", "bracket", "size", "text",
              "on_bracket", "pointless"}
    mutators = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update",
                "setdefault", "sort", "reverse", "__setitem__", "__delitem__"}
    path = Path(assoc2.__file__).parent / "twoassoc.py"
    tree = ast.parse(path.read_text(), str(path))
    table = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "_TwoBracketTable")
    init = next(node for node in table.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")

    def field(node):  # the table field that `node`, or a subscript of it, names
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.attr if isinstance(node, ast.Attribute) and node.attr in fields else None

    def written(root):  # (line, field) for each store, delete or mutating call on a field
        for node in ast.walk(root):
            if isinstance(node, (ast.Attribute, ast.Subscript)) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                name = field(node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in mutators:
                name = field(node.func.value)
            else:
                continue
            if name:
                yield node.lineno, name

    inside = set(written(init))
    assert {name for _, name in inside} == fields
    assert sorted(set(written(tree)) - inside) == []


def test_no_engine_code_probes_an_order():
    # from_order probes every pair of increasing rank; W_n, K_r, fiber products and
    # the graded test family hand their down-sets to from_down_sets, which their
    # structure gives directly
    callers = set()
    for path in sorted(Path(assoc2.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [(f"{node.name}.{fn.name}", fn) for node in tree.body
                      if isinstance(node, ast.ClassDef)
                      for fn in node.body if isinstance(fn, ast.FunctionDef)]
        for name, fn in functions:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "from_order" in (
                        getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                    callers.add(f"{path.stem}.{name}")
    assert callers == set()
    # perfbench/layers.py wraps these by name through RankedPoset.__dict__
    assert {"from_order", "__init__", "mobius"} <= set(assoc2.RankedPoset.__dict__)


def test_the_series_has_one_solver():
    # solve_f is solve_F at the one-leaf tree: one cleared solve, one fixed-point check
    path = Path(assoc2.__file__).parent / "series.py"
    tree = ast.parse(path.read_text(), str(path))
    callers = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_solve_cleared"]
    assert callers == ["solve_F"]
    checks = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and "not a fixed point" in str(node.value)]
    assert len(checks) == 1
    assert "_solve_cleared" not in _names_used(path)["solve_f"]


def test_the_value_class_kernel_serves_the_moebius_and_flag_sweeps_only():
    # the Moebius rows and the flag f-vector sum over value classes through one
    # kernel; the interval and diamond sweeps do not, so each stays separate evidence
    path = Path(assoc2.__file__).parent / "poset.py"
    tree = ast.parse(path.read_text(), str(path))
    poset = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "RankedPoset")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    methods = {node.name: node for node in poset.body if isinstance(node, ast.FunctionDef)}
    assert not functions.keys() & methods.keys()
    functions.update(methods)
    used = {name: {n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(fn) if isinstance(n, (ast.Name, ast.Attribute))}
            for name, fn in functions.items()}
    for name in ("mobius_failures", "mobius", "flag_f_vector"):
        assert "_grouped_sum" in _reached(used, name), name
    for name in ("_signed", "verify_eulerian", "diamond_failures"):
        assert "_grouped_sum" not in _reached(used, name) | {name}, name
    # and the swept rows keep no per-bit loop over a down row
    for name in ("_mobius_row", "flag_f_vector"):
        loops = [node.lineno for node in ast.walk(functions[name])
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_bits"
                 and any(getattr(n, "attr", None) == "_down" for n in ast.walk(node))]
        assert loops == [], name
