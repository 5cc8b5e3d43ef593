"""A default that nothing overrides is not an option: the census, by ``ast``.

An *option* is a defaulted parameter of a public function or method in
``src/repro`` (``__init__`` included), or a plain-default field of a
public dataclass.  It is *set* when some call in ``src``, ``benchmarks``,
``examples`` or ``tests`` passes it: by keyword, by position, through
``*args`` / ``**kwargs``, through ``replace(...)`` / ``.with_(...)``, or,
for a field, by assigning the attribute.  Calls are matched by name.  A
constructor is also reached through ``super().__init__(...)``, through
``cls(...)`` in a classmethod (``cls`` may be any subclass), and through
a parameter that is called (``_get_or_create(Gauge, ...)`` calls
``Gauge``), and a call whose first argument is a def's name as a string
stands for a call of that def with the rest of its arguments
(``pair.do("write", a, b, nt=...)`` dispatches by ``getattr``).
The census errs towards "set": a parameter it flags is one no call of
that name could reach.

A test is a witness, not a caller: ``src`` holds what the system runs.
So the census is taken twice, over all four directories and over the
three without ``tests``, and what only the first sees is test-only.

Four rules, one test each:

* every option is set by some caller, or is in :data:`ALLOWED` with the
  roadmap item that owns it;
* every public function, method and class is referenced somewhere
  outside its own definition (dunders and the CLI's ``@command``
  functions excepted; an ``__all__`` entry or a re-export is not a use);
* every :data:`ALLOWED` and :data:`TEST_ONLY` entry still names what it
  excuses;
* no option is set, and no public def referenced, by ``tests`` alone,
  unless it is in :data:`TEST_ONLY` with the roadmap item that owns it.

Every tree comes from :mod:`tests._code_index`, and nothing is parsed
until the first of these tests runs.
"""

import ast
from functools import cache
from pathlib import Path

from tests import _code_index as index
from tests._code_index import DIRS, ROOT, SRC

CALLER_DIRS = DIRS
PRODUCTION_DIRS = tuple(d for d in DIRS if d != "tests")

_CPU_ITEM_6 = "ROADMAP item 6 refits the cost table"
_POLICY_ITEM_15 = "ROADMAP item 15 rewrites the hybrid policy"

#: ``module:Qual.field`` or ``module:Qual.def(param)`` -> why it stays an
#: option that nothing sets.
ALLOWED = {
    "repro.dedup.hybrid:HybridPolicy.window_pages": _POLICY_ITEM_15,
    "repro.dedup.hybrid:HybridPolicy.low_windows_off": _POLICY_ITEM_15,
    "repro.dedup.hybrid:HybridPolicy.depth_low": _POLICY_ITEM_15,
    "repro.pm.latency:CpuModel.sha1_setup_ns": _CPU_ITEM_6,
    "repro.pm.latency:CpuModel.crc32_setup_ns": _CPU_ITEM_6,
    "repro.pm.latency:CpuModel.crc32_ns_per_byte": _CPU_ITEM_6,
    "repro.pm.latency:CpuModel.memcmp_ns_per_byte": _CPU_ITEM_6,
    "repro.pm.latency:CpuModel.branch_ns": _CPU_ITEM_6,
    "repro.pm.latency:CpuModel.syscall_ns": _CPU_ITEM_6,
    "repro.workloads.fleet:run_fleet(qos_op_rate_per_s)":
        "ROADMAP item 4 (ii) deletes the op-rate chain, whose "
        "TenantQoS.throttle the e2e tracer names until item 4 (i)",
}

#: ``module:Qual.field``, ``module:Qual.def(param)`` or ``module:Qual.def``
#: -> why an option or def that only tests reach stays in ``src``.
TEST_ONLY = {
    "repro.pm.latency:CpuModel.dram_touch_ns": _CPU_ITEM_6,
    "repro.pm.latency:CpuModel.sha1_ns_per_byte": _CPU_ITEM_6,
    "repro.tenant.qos:TokenBucket.__init__(burst)":
        "ROADMAP item 4 (ii) deletes TokenBucket with the op-rate chain",
    "repro.failure.injector:run_with_crash(seed)":
        "ROADMAP item 17 replays single crashes of the seeded every-event "
        "sweep, whose torn draws follow the campaign seed",
    "repro.failure.image:Image.region_digest":
        "ROADMAP item 24: the per-region digests the image and media pins "
        "keep; items 12 and 22 read the decoder from src",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _name(node):
    """The terminal identifier of a ``Name`` or ``Attribute``."""
    if isinstance(node, ast.Name):
        return node.id
    return getattr(node, "attr", None)


def _decorators(node) -> set:
    return {_name(d.func if isinstance(d, ast.Call) else d)
            for d in node.decorator_list}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _args(call: ast.Call):
    """``(positional count, has *args, keyword names, has **kwargs)``."""
    return (sum(not isinstance(a, ast.Starred) for a in call.args),
            any(isinstance(a, ast.Starred) for a in call.args),
            {k.arg for k in call.keywords if k.arg is not None},
            any(k.arg is None for k in call.keywords))


class Census:
    """Every option and public def of ``src/repro``, and every use of
    one in the caller directories."""

    def __init__(self, dirs):
        self.trees = {p: index.tree(p)
                      for d in dirs for p in index.files(ROOT / d)}
        self.options = {}     # key -> (owner name, param, position, field?)
        self.defs = {}        # key -> (name, node, path)
        self.bases = {}       # class name -> base names
        self.inits = set()    # classes whose __init__ is their own
        self.calls = {}       # callee name -> [_args]
        self.call_nodes = {}  # callee name -> [ast.Call]
        self.ctors = {}       # class name -> [_args]
        self.replaced = set()     # keywords of replace(...) / .with_(...)
        self.assigned = set()     # attribute names stored to
        self.names = {}           # identifier -> [(path, line)]
        self._via_param = []      # (function, param, position, _args)
        for path, tree in self.trees.items():
            if SRC in path.parents:
                self._module(_module_name(path), path, tree)
        for path, tree in self.trees.items():
            self._uses(path, tree, cls=None, fn=None)
        self._resolve_param_calls()

    # ----------------------------------------------------------- the defs

    def _module(self, mod, path, tree):
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self._class(mod, path, node)
            elif isinstance(node, _FUNCS) and _public(node.name):
                key = f"{mod}:{node.name}"
                self.defs[key] = (node.name, node, path)
                self._params(key, node, node.name, skip=0)

    def _class(self, mod, path, cls):
        self.bases[cls.name] = [_name(b) for b in cls.bases]
        dataclass = "dataclass" in _decorators(cls)
        if dataclass or any(isinstance(n, _FUNCS) and n.name == "__init__"
                            for n in cls.body):
            self.inits.add(cls.name)
        if not _public(cls.name):
            return
        key = f"{mod}:{cls.name}"
        self.defs[key] = (cls.name, cls, path)
        if dataclass:
            fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)
                      and isinstance(n.target, ast.Name)
                      and "ClassVar" not in ast.unparse(n.annotation)]
            for pos, f in enumerate(fields):
                if f.value is not None and not (
                        isinstance(f.value, ast.Call)
                        and _name(f.value.func) == "field"):
                    self.options[f"{key}.{f.target.id}"] = (
                        cls.name, f.target.id, pos, True)
        for node in cls.body:
            if not isinstance(node, _FUNCS):
                continue
            skip = 0 if "staticmethod" in _decorators(node) else 1
            if node.name == "__init__":
                self._params(f"{key}.__init__", node, cls.name, skip)
            elif _public(node.name):
                self.defs[f"{key}.{node.name}"] = (node.name, node, path)
                self._params(f"{key}.{node.name}", node, node.name, skip)

    def _params(self, key, fn, owner, skip):
        a = fn.args
        positional = (a.posonlyargs + a.args)[skip:]
        first_default = len(positional) - len(a.defaults)
        for pos, arg in enumerate(positional[first_default:],
                                  start=first_default):
            self.options[f"{key}({arg.arg})"] = (owner, arg.arg, pos, False)
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                self.options[f"{key}({arg.arg})"] = (
                    owner, arg.arg, None, False)

    # ----------------------------------------------------------- the uses

    def _uses(self, path, node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                self._call(child, cls, fn)
            elif isinstance(child, ast.Attribute):
                if isinstance(child.ctx, ast.Store):
                    self.assigned.add(child.attr)
                self.names.setdefault(child.attr, []).append(
                    (path, child.lineno))
            elif isinstance(child, ast.Name):
                self.names.setdefault(child.id, []).append(
                    (path, child.lineno))
            self._uses(path, child,
                       child if isinstance(child, ast.ClassDef) else cls,
                       child if isinstance(child, _FUNCS) else fn)

    def _call(self, call, cls, fn):
        name, args = _name(call.func), _args(call)
        if isinstance(call.func, ast.Name) and fn is not None:
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args]
            if name == "cls" and "classmethod" in _decorators(fn):
                for sub in self._subclasses(cls.name):
                    self.ctors.setdefault(sub, []).append(args)
                return
            if name in params:
                skip = 0 if cls is None or "staticmethod" in \
                    _decorators(fn) else 1
                self._via_param.append(
                    (fn.name, name, params.index(name) - skip, args))
                return
        if name == "__init__" and isinstance(call.func.value, ast.Call) \
                and _name(call.func.value.func) == "super":
            for base in self.bases.get(cls.name, ()):
                self.ctors.setdefault(base, []).append(args)
            return
        self.calls.setdefault(name, []).append(args)
        self.ctors.setdefault(name, []).append(args)
        self.call_nodes.setdefault(name, []).append(call)
        if call.args and isinstance(call.args[0], ast.Constant) \
                and isinstance(call.args[0].value, str):
            npos, star, kws, dstar = args
            self.calls.setdefault(call.args[0].value, []).append(
                (npos - 1, star, kws, dstar))
        if name in ("replace", "with_"):
            self.replaced |= args[2]
        if name == "setattr" and len(call.args) > 1 and \
                isinstance(call.args[1], ast.Constant):
            self.assigned.add(call.args[1].value)

    def _resolve_param_calls(self):
        for fn, param, pos, args in self._via_param:
            for call in self.call_nodes.get(fn, ()):
                passed = [k.value for k in call.keywords if k.arg == param]
                if 0 <= pos < len(call.args):
                    passed.append(call.args[pos])
                for value in passed:
                    self.calls.setdefault(_name(value), []).append(args)
                    self.ctors.setdefault(_name(value), []).append(args)

    def _subclasses(self, name: str, skip=frozenset()) -> set:
        """``name`` and every class below it, not descending into the
        classes in ``skip``."""
        out, grew = {name}, True
        while grew:
            grew = False
            for cname, bases in self.bases.items():
                if cname not in out and cname not in skip \
                        and out.intersection(bases):
                    out.add(cname)
                    grew = True
        return out

    # ------------------------------------------------------------ verdicts

    def is_set(self, key: str) -> bool:
        owner, param, pos, field = self.options[key]
        if field and (param in self.replaced or param in self.assigned):
            return True
        if field or key.split("(")[0].endswith(".__init__"):
            # owner and the subclasses that inherit its __init__
            sigs = [s for c in self._subclasses(owner, skip=self.inits)
                    for s in self.ctors.get(c, ())]
        else:
            sigs = self.calls.get(owner, ())
        return any(param in kws or star or dstar
                   or (pos is not None and npos > pos)
                   for npos, star, kws, dstar in sigs)

    def never_set(self) -> list:
        return sorted(k for k in self.options if not self.is_set(k))

    def unreferenced(self) -> list:
        out = []
        for key, (name, node, path) in self.defs.items():
            if name.startswith("__") or "command" in _decorators(node):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in inside
                       for p, line in self.names.get(name, ())):
                out.append(key)
        return sorted(out)


@cache
def census(dirs=CALLER_DIRS) -> Census:
    return Census(dirs)


def test_every_option_is_set_by_some_caller():
    unset = [k for k in census().never_set() if k not in ALLOWED]
    assert not unset, (
        f"{len(unset)} defaults that no call in {', '.join(CALLER_DIRS)} "
        "overrides; make each its value (or give it a caller):\n"
        + "\n".join(unset))


def test_every_public_def_is_referenced():
    dead = census().unreferenced()
    assert not dead, ("public defs that nothing references; delete them:\n"
                      + "\n".join(dead))


def test_allowed_options_still_exist_and_are_unset():
    stale = [k for k in ALLOWED
             if k not in census().options or census().is_set(k)]
    assert not stale, ("ALLOWED entries that are gone or now set; drop "
                       "them:\n" + "\n".join(stale))
    assert all("ROADMAP item" in why for why in ALLOWED.values())
    stale = sorted(set(TEST_ONLY) - set(_test_only()))
    assert not stale, ("TEST_ONLY entries that are gone, unused or reached "
                       "outside tests; drop them:\n" + "\n".join(stale))
    assert all("ROADMAP item" in why for why in TEST_ONLY.values())


def _test_only():
    """Options and public defs that only ``tests`` set or reference."""
    full, prod = census(), census(PRODUCTION_DIRS)
    return (set(prod.never_set()) - set(full.never_set()) - set(ALLOWED)
            | set(prod.unreferenced()) - set(full.unreferenced()))


def test_nothing_in_src_serves_only_the_tests():
    served = sorted(set(_test_only()) - set(TEST_ONLY))
    assert not served, (
        f"{len(served)} options / public defs that only tests set or "
        "reach; delete each, move it under tests/, make it a class "
        "attribute a test overrides, or give it a production caller:\n"
        + "\n".join(served))
