"""Every public top-level name of the package has a caller outside its tests."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Names that only the acceptance tests call; they stay public on purpose.
ACCEPTANCE_NAMES = {"decomposition_residuals", "haar_reconstruction", "trace_pairing",
                    "rotate_spec", "make_ks_symbol", "limit_table"}


def _identifiers(tree):
    """Every name a piece of code mentions: variables, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_public_name_has_a_caller():
    mentions = Counter()
    definitions = []
    for path in sorted((ROOT / "src" / "schurlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        mentions.update(_identifiers(tree))
        definitions += [(path.stem, node) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        mentions.update(_identifiers(ast.parse(path.read_text())))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))

    unused = [f"{module}.{node.name}" for module, node in definitions
              if node.name not in ACCEPTANCE_NAMES | readme
              and mentions[node.name] == Counter(_identifiers(node))[node.name]]
    assert not unused, f"public names that nothing but their tests call: {unused}"


# Defaulted parameters that only tests set; a new knob must earn a caller in
# src/ or perfbench/, or be documented in README.md as `function.parameter`.
TEST_ONLY_KNOBS = {
    "DyadicSystem.omega", "bk_bound_check.l", "kernel_eval.K", "kernel_gradient.K",
    "lemma43_check.samples", "make_ks_symbol.sigma", "random_admissible_spec.n_cubes",
    "size_smoothness_check.n_angles", "divdiff_partial.which",
}


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _fields(node):
    """The annotated class-level assignments of a dataclass, in order."""
    return [s for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def _defaulted(node):
    """(positional parameters in order, names of the defaulted ones) of a
    top-level function or dataclass."""
    if isinstance(node, ast.ClassDef):
        fields = _fields(node)
        return ([s.target.id for s in fields],
                {s.target.id for s in fields if s.value is not None})
    a = node.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaulted = set(positional[len(positional) - len(a.defaults):])
    defaulted |= {p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
    return positional, defaulted


def test_every_defaulted_parameter_is_set_somewhere():
    defs = {}
    for path in sorted((ROOT / "src" / "schurlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.FunctionDef) or isinstance(node, ast.ClassDef)
                    and _is_dataclass(node)) and not node.name.startswith("_"):
                defs[node.name] = _defaulted(node)
    set_by_calls = set()
    for path in [*sorted((ROOT / "src" / "schurlab").glob("*.py")),
                 *sorted((ROOT / "perfbench").glob("*.py"))]:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name not in defs:
                continue
            positional, defaulted = defs[name]
            # from a *sequence on, the arguments fill only parameters without
            # a default: sup_deriv(f, n, *interval) does not set samples
            plain = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                         len(call.args))
            given = set(positional[:plain])
            for kw in call.keywords:  # **mapping may set any parameter
                given |= {kw.arg} if kw.arg else defaulted
            set_by_calls |= {f"{name}.{p}" for p in given & defaulted}
    readme = set(re.findall(r"\w+\.\w+", (ROOT / "README.md").read_text()))
    knobs = {f"{name}.{p}" for name, (_, defaulted) in defs.items() for p in defaulted}
    assert TEST_ONLY_KNOBS <= knobs, f"stale entries: {TEST_ONLY_KNOBS - knobs}"
    unset = sorted(knobs - set_by_calls - TEST_ONLY_KNOBS - readme)
    assert not unset, f"defaulted parameters that nothing but tests set: {unset}"


def test_every_dataclass_field_is_read():
    # a field that src/, perfbench/ and tests/ only ever write is dead weight:
    # reads are attribute loads and getattr(obj, "name")
    fields = [f"{node.name}.{s.target.id}"
              for path in sorted((ROOT / "src" / "schurlab").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              for s in _fields(node)]
    read = set()
    for directory in ("src/schurlab", "perfbench", "tests"):
        for path in sorted((ROOT / directory).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                      and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                    read.add(node.args[1].value)
    unread = [f for f in fields if f.split(".", 1)[1] not in read]
    assert not unread, f"dataclass fields that nothing reads: {unread}"


def test_svd_has_one_entry_point():
    # matrixnum.svd pins OpenBLAS to one thread and maps LAPACK
    # non-convergence to ConvergenceFailure; no other module may bypass it
    callers = [path.name for path in sorted((ROOT / "src" / "schurlab").glob("*.py"))
               if "np.linalg.svd" in path.read_text()]
    assert callers == ["matrixnum.py"]


def test_every_raise_is_a_schurlab_error():
    # the CLI maps SchurLabError to exit status 2; a raise of another class
    # printed "error [ValueError]" or "error [KeyError]", or a traceback
    from schurlab import errors
    known = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.SchurLabError)}
    others = [f"{path.name}:{node.lineno} {node.exc.func.id}"
              for path in sorted((ROOT / "src" / "schurlab").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name) and node.exc.func.id not in known]
    assert not others, f"raises of classes outside schurlab.errors: {others}"


def test_table_layout_is_read_in_one_place():
    # the engine sees operators only: the n^3 kernels are called from the
    # table's operator and from apply_bilinear, and _ascend never asks a
    # table for its dimension
    kernels = {"_bilinear", "_bilinear_adjoint_first", "_bilinear_adjoint_second"}
    users = set()
    for path in sorted((ROOT / "src" / "schurlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if kernels & set(_identifiers(node)):
                users.add(getattr(node, "name", f"{path.stem} module level"))
    assert users == {"_table_operator", "apply_bilinear"}
    tree = ast.parse((ROOT / "src" / "schurlab" / "schur.py").read_text())
    (ascend,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_ascend"]
    assert "ndim" not in set(_identifiers(ascend))
