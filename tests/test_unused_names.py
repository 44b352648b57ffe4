"""Every module-level name of the engine is used by the engine or the benchmark.

A function, class or constant in src/so5racah that nothing in
src/so5racah or perfbench/ refers to, outside its own definition, is
dead code unless it is listed in KEPT with the reason it stays.  Click
commands are reached through the CLI group and are exempt.

In the engine a reference is a name, an attribute, an imported name, or
a string that is a dotted identifier.  In the benchmark a reference
counts only when it names the engine: a name imported from so5racah, an
attribute of an engine module (m.racah.build_system, cli.main), or a
trace target, whose dotted name so5racah.<module>.<name> the benchmark
builds from strings.  A bare name that the benchmark defines itself
does not count.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "so5racah"
MODULES = {path.stem for path in SRC.glob("*.py")}

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


def _engine_references(stmt):
    """What a benchmark statement names of the engine: names imported
    from so5racah and attributes of an engine module."""
    out = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "so5racah":
            out.update(a.name for a in n.names)
        elif isinstance(n, ast.Attribute):
            base = n.value
            if getattr(base, "id", getattr(base, "attr", None)) in MODULES:
                out.add(n.attr)
    return out


def _target_references():
    """The names in the dotted so5racah.<module>.<name> of every trace
    target of the benchmark."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    out = set()
    for t in workloads.targets(workloads.LayerStats()):
        package, module = t.owner.split(".")
        assert package == "so5racah" and module in MODULES, t.owner
        out.update(t.attr.split("."))
    return out


def _is_command(stmt):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command"
               for d in getattr(stmt, "decorator_list", ()))


def _unused():
    defs, statements = {}, []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _defined(stmt)
            if not _is_command(stmt):
                defs.update(dict.fromkeys(names, path.name))
            statements.append((names, _referenced(stmt)))
    bench = _target_references()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            bench |= _engine_references(stmt)
    statements.append((set(), bench))
    return {name: module for name, module in defs.items()
            if not any(name in refs and name not in names
                       for names, refs in statements)}


def test_every_engine_name_has_a_reference():
    unused = _unused()
    assert {n: m for n, m in unused.items() if n not in KEPT} == {}


def test_every_kept_name_is_still_unreferenced():
    # a kept name that gained a reference no longer needs its entry
    assert sorted(set(KEPT) - set(_unused())) == []
