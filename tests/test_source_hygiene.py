"""Source checks on the package modules and the tests (stdlib `ast`,
plus one check on the imported engine).

Every import is used; the package `__init__.py`, names listed in
`__all__` and `from __future__` are exempt as re-exports.  Outside the
engine, only `compiler.execute_schedule` makes an engine `Run`,
applies segments and reads out qubits (the readout takes the atom's
position among the schedule's sites, which the executor works out), so
gates reach the engine through one path, one run per call.  The compiler, the pulse builders and the engine evaluate no level
physics: they reference none of the level-table and ladder kernels and
index the register's cached table of `addressing.site_levels`.  The
sweeps, the addressing comb and the gradient check evaluate all their
fields in one array call, and the hyperfine calibration all its
candidates of a search step: they read no per-site table of
`site_levels`.  The compiler plans no gradients: it compiles under its
caller's.  The CLI constructs no atom,
lattice, gradient or noise parameters and plans no gradients: the
scenario readers own those rules.  The engine's per-atom basis
is the register level table, with no level of its own.  No package
module imports `expm`: the engine's own stacked kernel exponentiates
every block, and scipy's `expm` serves only the tests' dense oracle.
Every public top-level function and class is referenced by package code
outside its own definition; `__init__` re-exports do not count.  Every
numeric scenario key names its unit in a suffix or is dimensionless.
Every defaulted parameter of a package function, and every defaulted
field of a package dataclass, is passed by some call in the package: a
knob that every caller leaves at its default is a constant.  Importing
the package and running the CLI, the feasibility report and a scenario
run among it, loads no scipy, mpmath or hypothesis module: they serve
the tests' oracles and properties only.  Every dataclass
field, `engine.Pulse`'s included, takes part in equality and hashing, so
the run's segment store is keyed by all of a segment.  The package's
`lru_cache` uses are the three pinned ones, and no package function
writes into a module-level container: a propagator or partition cache
that outlived one run would give the benchmark's in-process loop warm
hits that a `ybqc run` process never gets."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ybqc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):     # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") \
        == ["line 1: os"]
    assert unused_imports("from __future__ import annotations\n"
                          "from a import b as c\nc()\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p:
                         p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def expm_references(source: str) -> list[int]:
    """Lines that import `expm` or read it as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "expm" in alias.name.split(".") for alias in node.names) \
                or isinstance(node, ast.Attribute) and node.attr == "expm":
            lines.append(node.lineno)
    return lines


def test_checker_finds_expm():
    assert expm_references("from scipy.linalg import expm as e\n"
                           "import scipy.linalg as sl\n"
                           "u = sl.expm(a)\nv = _expm_stack(a)\n") == [1, 3]


def test_package_does_not_use_expm():
    found = {p.name: expm_references(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


ENGINE_ENTRY_POINTS = {"apply_segment", "Run", "measure_qubit"}
ALLOWED_CALLERS = {("compiler", "execute_schedule")}
# The kernels of the level physics: the level tables and the 3-photon
# ladder at an array of fields.  The pulse path references none of them;
# it indexes the register's cached table of `addressing.site_levels`.
LEVEL_PHYSICS = {"zeeman_table", "register_table", "ladder_detunings"}
PULSE_PATH = ("compiler", "protocols", "engine")


def callers(module: str, source: str, names: set) -> set[tuple[str, str]]:
    """(module, top-level function) pairs that call any of `names`."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in names:
                found.add((module, getattr(top, "name", "<module>")))
    return found


def test_checker_finds_engine_callers():
    assert callers("m", "def f(r):\n"
                   "    return engine.apply_segment(r, s, n)\n"
                   "def g(r):\n    apply_segment(r, s, n)\n"
                   "def h(r):\n    return r\n", ENGINE_ENTRY_POINTS) \
        == {("m", "f"), ("m", "g")}
    assert callers("m", "x = apply_segment(r, s, n)\n",
                   ENGINE_ENTRY_POINTS) == {("m", "<module>")}
    assert callers("m", "def f(r):\n"
                   "    return protocols.measure_qubit(r, 0, rng)\n"
                   "def g(r):\n    measure_qubit(r, 1, rng)\n",
                   ENGINE_ENTRY_POINTS) == {("m", "f"), ("m", "g")}


def test_only_the_executor_drives_the_engine():
    found = set()
    for path in MODULES:
        if path.stem != "engine":
            found |= callers(path.stem, path.read_text(), ENGINE_ENTRY_POINTS)
    assert found <= ALLOWED_CALLERS


def references(source: str, names: set) -> set[str]:
    """Those of `names` that `source` imports, reads or calls, bare or
    as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else \
            node.name if isinstance(node, ast.alias) else None
        if name in names:
            found.add(name)
    return found


def test_checker_finds_level_table_builders():
    source = ("from .atomic import zeeman_table as z\n"
              "def f(p, B):\n    return atomic.register_table(p, B)\n"
              "def g(t):\n    return t.ladder\n"
              "kernel = ladder_detunings\n")
    assert references(source, LEVEL_PHYSICS) == LEVEL_PHYSICS
    assert references("def g(t):\n    return t.ladder[0]\n",
                      LEVEL_PHYSICS) == set()


def test_pulse_path_reads_the_cached_level_tables():
    found = {(path.stem, name) for path in MODULES if path.stem in PULSE_PATH
             for name in references(path.read_text(), LEVEL_PHYSICS)}
    assert found == set()


# Stages that evaluate the level table or the local field at many fields
# or sites (or, for the calibration, at many candidate hyperfine
# constants): each makes one array call, never one call per field, site
# or candidate, and reads no per-site table.
ARRAY_STAGES = {("scenario", "emit_detuning_curves"),
                ("scenario", "emit_level_sweep"),
                ("addressing", "resonance_map"),
                ("addressing", "validate_gradients"),
                ("addressing", "nearest_fields"),
                ("atomic", "calibrate_hyperfine_A")}


def test_array_stages_make_no_per_field_calls():
    found = set()
    for module in {module for module, _ in ARRAY_STAGES}:
        found |= callers(module, (SRC / f"{module}.py").read_text(),
                         {"site_levels"})
    assert found & ARRAY_STAGES == set()


# Public names that no package code references, each kept for a reason:
# the closed-form budget that the engine's survival is checked against.
DEAD_NAME_ALLOWLIST = {"feasibility.decoherence_budget"}


def unreferenced_names(sources: dict[str, str]) -> set[str]:
    """`module.name` of every public top-level function and class in
    `sources` ({module: source}) that no code in `sources` references
    outside the name's own definition."""
    defined, refs = {}, []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                    and not top.name.startswith("_"):
                defined[f"{module}.{top.name}"] = (top.name, top)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else \
                    node.name if isinstance(node, ast.alias) else None
                refs.append((name, top))
    return {key for key, (name, own) in defined.items()
            if not any(n == name and top is not own for n, top in refs)}


def test_checker_finds_unreferenced_names():
    source = ("def f():\n    return f()\n"
              "def g():\n    return h.x\n"
              "class C:\n    pass\n"
              "def _p():\n    return 0\n"
              "def x():\n    return 1\n")
    assert unreferenced_names({"m": source, "n": "from m import C\n"}) \
        == {"m.f", "m.g"}


def test_every_public_name_has_a_package_reference():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unreferenced_names(sources) == DEAD_NAME_ALLOWLIST


UNIT_SUFFIXES = ("_hz", "_s", "_m", "_kg", "_gauss", "_g_per_cm", "_mu_n")
DIMENSIONLESS_KEYS = {"n_x", "n_y", "n_z", "steps", "seed", "initial_ones",
                      "safety_factor", "depth_recoils", "dipole_scale",
                      "g_J_3P2", "branching_1P1_to_3D"}


def numeric_scenario_keys(source: str) -> set[str]:
    """Keys of the sections that `scenario_from_dict` in `source` passes
    to `_known_fields` which it reads as numbers with `_read`: by a
    literal "section.key" name, or by an f"section.{...}" name that
    reads every key of the section."""
    func = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef)
                and node.name == "scenario_from_dict")
    assigned = {node.targets[0].id: node.value for node in ast.walk(func)
                if isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)}
    sections, read = {}, set()
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "_known_fields":
            keys = node.args[2]
            keys = assigned.get(getattr(keys, "id", None), keys)
            sections[node.args[0].value] = {k.value for k in keys.elts}
        elif node.func.id == "_read":
            name = node.args[1]
            if isinstance(name, ast.JoinedStr):
                read.add(name.values[0].value)
            else:
                read.add(name.value)
    return {key for section, keys in sections.items() for key in keys
            if key in read or f"{section}.{key}" in read
            or f"{section}." in read}


def test_checker_finds_numeric_scenario_keys():
    source = ("def scenario_from_dict(data):\n"
              "    top = {'a', 'seed'}\n"
              "    _known_fields('<root>', data, top)\n"
              "    _known_fields('lat', data['l'], {'n', 'w_m'})\n"
              "    _known_fields('g', data['g'], {'x', 'y'})\n"
              "    n = _read(int, 'lat.n', 1)\n"
              "    g = {k: _read(float, f'g.{k}', v) for k, v in 1}\n"
              "    return _read(int, 'seed', data['seed'])\n")
    assert numeric_scenario_keys(source) == {"seed", "n", "x", "y"}


def test_numeric_scenario_keys_carry_a_unit_suffix():
    from dataclasses import fields

    from ybqc.atomic import AtomParams
    from ybqc.engine import NoiseParams
    keys = numeric_scenario_keys((SRC / "scenario.py").read_text())
    keys |= {f.name for cls in (AtomParams, NoiseParams)
             for f in fields(cls)}
    assert {"spacing_m", "B0_gauss", "steps", "mass_kg"} <= keys
    assert {key for key in keys if not key.endswith(UNIT_SUFFIXES)} \
        <= DIMENSIONLESS_KEYS


def test_compiler_plans_no_gradients():
    source = (SRC / "compiler.py").read_text()
    assert callers("compiler", source, {"plan_gradients"}) == set()


# The scenario readers' rules; the CLI passes them its flags as keys.
READER_RULES = {"AtomParams", "LatticeGeometry", "GradientConfig",
                "NoiseParams", "plan_gradients"}


def test_cli_leaves_the_input_rules_to_the_scenario_readers():
    source = (SRC / "cli.py").read_text()
    assert callers("cli", source, READER_RULES) == set()


def test_engine_basis_is_the_register_level_table():
    from ybqc.atomic import AtomParams, register_table
    from ybqc.engine import NLEV
    assert NLEV == len(register_table(AtomParams(), [1e-2]).energy_hz)


# Defaulted parameters that only callers outside the package pass.
KNOB_ALLOWLIST = {"cli.main(argv)"}
# Parameter dataclasses whose fields reach the constructor as cls(**data)
# from scenario keys, which no call names.
FIELD_ALLOWLIST = {"atomic.AtomParams", "engine.NoiseParams"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _dataclass_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has a default) of each field of a dataclass, in order;
    ClassVar annotations are not fields."""
    out = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            ann = stmt.annotation
            ann = ann.value if isinstance(ann, ast.Subscript) else ann
            if not (isinstance(ann, ast.Name) and ann.id == "ClassVar"):
                out.append((stmt.target.id, stmt.value is not None))
    return out


def unpassed_knobs(sources: dict[str, str]) -> list[str]:
    """`module.function(parameter)` for every defaulted parameter of a
    function or method in `sources` ({module: source}; dunder methods
    exempt), and `module.Class(field)` for every defaulted field of a
    dataclass there, that no call in `sources` passes, by keyword or
    position.  Calls match by the called name; a method call binds
    `self`."""
    knobs, calls = {}, []
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree)
                   if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for i, (name, default) in enumerate(_dataclass_fields(node)):
                    if default:
                        knobs[f"{module}.{node.name}({name})"] = \
                            (node.name, name, i)
            elif isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("__"):
                a = node.args
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                bound = id(node) in methods
                for i, arg in enumerate(pos[first:], first - bound):
                    knobs[f"{module}.{node.name}({arg.arg})"] = \
                        (node.name, arg.arg, i)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        knobs[f"{module}.{node.name}({arg.arg})"] = \
                            (node.name, arg.arg, None)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.append((name, len(node.args),
                              {k.arg for k in node.keywords}))
    return sorted(
        knob for knob, (func, param, index) in knobs.items()
        if not any(name == func and (param in keywords or index is not None
                                     and n_args > index)
                   for name, n_args, keywords in calls))


def test_checker_finds_unpassed_knobs():
    source = ("def f(a, b=1, c=2, *, d=3):\n    return a\n"
              "class C:\n"
              "    def __init__(self, x=0):\n        self.x = x\n"
              "    def m(self, y=1, z=2):\n        return y\n"
              "def g():\n    f(0, 5, d=4)\n    C().m(1)\n")
    assert unpassed_knobs({"m": source}) == ["m.f(c)", "m.m(z)"]
    assert unpassed_knobs({"m": "def f(a=1):\n    return a\n",
                           "n": "from m import f\nf(a=2)\n"}) == []
    fields = ("@dataclass(frozen=True)\nclass P:\n    a: int\n"
              "    b: int = 1\n    c: int = 2\n    k: ClassVar[int] = 3\n"
              "    d: float = 0.0\n"
              "@dataclass\nclass Q:\n    e: int = 0\n"
              "class R:\n    f: int = 0\n"
              "P(0, 5, d=1.0)\n")
    assert unpassed_knobs({"m": fields}) == ["m.P(c)", "m.Q(e)"]


def test_every_knob_is_passed_inside_the_package():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert {knob for knob in unpassed_knobs(sources)
            if knob.partition("(")[0] not in FIELD_ALLOWLIST} \
        == KNOB_ALLOWLIST


# Test-only packages: oracles (scipy, mpmath) and properties (hypothesis)
TEST_ONLY_PACKAGES = ("scipy", "mpmath", "hypothesis")


def test_import_and_cli_load_no_scipy(tmp_path):
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nMEAS 0 0\n")
    (tmp_path / "scn.json").write_text(json.dumps({
        "pipeline": ["feasibility", "simulate"], "circuit_file": "c.txt",
        "lattice": {"n_x": 1, "n_y": 1, "n_z": 1}, "seed": 0,
        "output_dir": "out"}))
    code = ("import sys\nimport ybqc\nimport ybqc.cli\n"
            "for argv in (['levels', '--b-gauss', '100', '--calibrate'],\n"
            "             ['feasibility'], ['run', 'scn.json']):\n"
            "    assert ybqc.cli.main(argv) == 0\n"
            f"print([m for m in sys.modules if m.split('.')[0] in "
            f"{TEST_ONLY_PACKAGES!r}], file=sys.stderr)\n")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path},
                         cwd=tmp_path, check=True, timeout=60)
    assert run.stdout.startswith("m_F,branch,energy_hz\n")
    assert {"feasibility.json", "result.json"} \
        <= {p.name for p in (tmp_path / "out").iterdir()}
    assert run.stderr == "[]\n"


def fields_outside_equality(module: str, source: str) -> set[str]:
    """`module.Class.field` of every dataclass field in `source` whose
    `field(...)` call leaves equality or hashing: a `compare` other than
    True, or a `hash` other than True or None."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.value, ast.Call)):
                continue
            for kw in stmt.value.keywords:
                value = kw.value.value if isinstance(kw.value, ast.Constant) \
                    else kw.value
                if kw.arg == "compare" and value is not True \
                        or kw.arg == "hash" and value not in (True, None):
                    found.add(f"{module}.{node.name}.{stmt.target.id}")
    return found


def test_checker_finds_fields_outside_equality():
    source = ("@dataclass(frozen=True)\nclass P:\n    a: int\n"
              "    b: float = field(default=0.0, compare=False)\n"
              "    c: float = field(default=0.0, hash=False)\n"
              "    d: float = field(default=0.0, compare=FLAG)\n"
              "    e: float = field(default=0.0, compare=True, hash=None)\n"
              "    f: list = field(default_factory=list)\n"
              "class Q:\n    g: float = field(compare=False)\n")
    assert fields_outside_equality("m", source) == {"m.P.b", "m.P.c",
                                                     "m.P.d"}


def test_every_dataclass_field_takes_part_in_equality():
    # the run's store keys each segment by its pulse and gradients, so a
    # field outside equality would merge segments that differ in it
    found = set()
    for path in SRC.glob("*.py"):
        found |= fields_outside_equality(path.stem, path.read_text())
    assert found == set()


# Process-wide caches of the package: the per-site level tables, the
# basis label table and the dipole diagonal.
PINNED_CACHES = {"addressing.site_levels", "engine.basis_labels",
                 "engine._dipole_diagonal"}


def cached_functions(module: str, source: str) -> set[str]:
    """`module.function` of every function in `source` decorated with
    `lru_cache` or `cache`, called or not, bare or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            dec = dec.func if isinstance(dec, ast.Call) else dec
            name = dec.id if isinstance(dec, ast.Name) else \
                dec.attr if isinstance(dec, ast.Attribute) else None
            if name in ("lru_cache", "cache"):
                found.add(f"{module}.{node.name}")
    return found


def test_checker_finds_cached_functions():
    source = ("@lru_cache(maxsize=None)\ndef a():\n    pass\n"
              "@functools.lru_cache\ndef b():\n    pass\n"
              "class C:\n    @cache\n    def c(self):\n        pass\n"
              "@functools.cache\nasync def d():\n    pass\n"
              "@staticmethod\ndef e():\n    lru_cache(f)\n")
    assert cached_functions("m", source) == {"m.a", "m.b", "m.c", "m.d"}


def test_package_caches_are_the_pinned_ones():
    found = set()
    for path in SRC.glob("*.py"):
        found |= cached_functions(path.stem, path.read_text())
    assert found == PINNED_CACHES


# Mutating methods of the builtin containers that a cache would call.
MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault"}


def module_state_writes(module: str, source: str) -> set[str]:
    """`module.function` of every function in `source` that writes into
    a name bound at the module's top level and not bound by the function
    itself, or into a local name assigned from one (`x = NAME`,
    `x = a if c else NAME`, `x = a or NAME`): a subscript store or
    delete, a `MUTATORS` call, or any `global` statement."""
    tree = ast.parse(source)
    top = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            top |= {name.id for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)}
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        own = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs
               + [a.vararg, a.kwarg] if arg is not None}
        own |= {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)}
        shared = top - own
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                value = node.value
                values = [value.body, value.orelse] \
                    if isinstance(value, ast.IfExp) else value.values \
                    if isinstance(value, ast.BoolOp) else [value]
                if any(isinstance(v, ast.Name) and v.id in shared
                       for v in values):
                    shared |= {t.id for t in node.targets
                               if isinstance(t, ast.Name)}
        for node in ast.walk(func):
            target = node.value if isinstance(node, ast.Subscript) \
                and not isinstance(node.ctx, ast.Load) else \
                node.func.value if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS else None
            if isinstance(node, ast.Global) \
                    or isinstance(target, ast.Name) and target.id in shared:
                found.add(f"{module}.{func.name}")
    return found


def test_checker_finds_module_state_writes():
    source = ("_PART = {}\nCACHE: dict = {}\nSEEN, N = [], 0\n"
              "_PART['k'] = 0\n"
              "def a(k):\n    _PART[k] = 1\n"
              "def b(k):\n    return CACHE.setdefault(k, 0)\n"
              "def c(k):\n    CACHE.update({k: 1})\n"
              "def d(k):\n    SEEN.append(k)\n"
              "def e():\n    global N\n    N += 1\n"
              "class C:\n    def f(self, k):\n        del _PART[k]\n"
              "def g(CACHE):\n    CACHE[0] = 1\n"
              "def h():\n    run = {}\n    run['x'] = 1\n"
              "    SEEN2 = []\n    SEEN2.append(1)\n    return run\n"
              "def i():\n    _PART = {}\n    _PART[1] = 2\n"
              "def j(k):\n    return _PART.get(k), CACHE[k]\n"
              "def k(run=None):\n    run = _PART if run is None else run\n"
              "    run[0] = 1\n"
              "def l(run=None):\n    run = run or CACHE\n"
              "    run.update(x=1)\n"
              "def n(run=None):\n    run = {} if run is None else run\n"
              "    run[0] = 1\n")
    assert module_state_writes("m", source) \
        == {"m.a", "m.b", "m.c", "m.d", "m.e", "m.f", "m.k", "m.l"}


def test_package_writes_no_module_level_state():
    found = set()
    for path in SRC.glob("*.py"):
        found |= module_state_writes(path.stem, path.read_text())
    assert found == set()
