"""Every module-level name of the engine is used by the engine or the benchmark.

A function, class or constant in src/so5racah that nothing in
src/so5racah or perfbench/ refers to, outside its own definition, is
dead code unless it is listed in KEPT with the reason it stays.  A
reference is a name, an attribute, an imported name, or a string that
is a dotted identifier (the benchmark names the functions it traces by
strings).  Click commands are reached through the CLI group and are
exempt.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "so5racah"

KEPT = {
    "coupled_commutator": "its commutator tests check that the generator "
                          "matrices close the so(5) algebra",
    "chain2_tmax": "closed-form isospin branching, the oracle of the counted "
                   "branching in chains",
    "chain2_mult": "closed-form isospin multiplicity, the oracle of the counted "
                   "branching in chains",
    "verify_series": "the acceptance gate's ket-sum completeness check",
    "SCALAR": "library constant: the SO(4) scalar irrep, next to HALFHALF",
    "SCHEMES": "library API: the scheme names convert_label accepts",
    "convert_label": "library API documented in the README",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _defined(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {n.id for t in stmt.targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _referenced(stmt):
    out = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and _DOTTED.fullmatch(n.value):
            out.update(n.value.split("."))
    return out


def _is_command(stmt):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command"
               for d in getattr(stmt, "decorator_list", ()))


def _unused():
    defs, statements = {}, []
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _defined(stmt)
            if path.parent == SRC and not _is_command(stmt):
                defs.update(dict.fromkeys(names, path.name))
            statements.append((names, _referenced(stmt)))
    return {name: module for name, module in defs.items()
            if not any(name in refs and name not in names
                       for names, refs in statements)}


def test_every_engine_name_has_a_reference():
    unused = _unused()
    assert {n: m for n, m in unused.items() if n not in KEPT} == {}


def test_every_kept_name_is_still_unreferenced():
    # a kept name that gained a reference no longer needs its entry
    assert sorted(set(KEPT) - set(_unused())) == []
