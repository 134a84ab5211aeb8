"""Names that other code reaches by string: the package's ``__all__`` and
the benchmark tracer's targets.  Deleting one of them fails here, not
only in the benchmark run.  And the reverse: a keyword option of the
package that no call sets fails here too."""

import ast
import glob
import importlib
import importlib.util
import os

import regpart

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("_regpart_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_imports():
    missing = [name for name in regpart.__all__
               if not hasattr(regpart, name)]
    assert missing == []


def test_tracer_targets_resolve_to_callables():
    targets = _load_spans().TARGETS
    assert targets
    for mod_name, path in targets:
        owner = importlib.import_module("regpart." + mod_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, path)


def _parse_all(top):
    trees = {}
    for sub in ("src", "perfbench", "demos", "tests"):
        pattern = os.path.join(top, sub, "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            with open(path, encoding="utf-8") as handle:
                trees[path] = ast.parse(handle.read())
    return trees


def _defaulted_options(tree, module):
    """``(key, owner, param, index, func)`` for every parameter with a
    default in ``tree``.  ``owner`` is the name a caller writes: the class
    for ``__init__``, the function otherwise; ``index`` is the position a
    call passes it at (``self``/``cls`` dropped for methods, ``None`` for a
    keyword-only one)."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.FunctionDef):
                args = child.args
                pos = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                shift = int(cls is not None and not static)
                owner = cls if child.name == "__init__" else child.name
                first = len(pos) - len(args.defaults)
                named = [(a, k - shift) for k, a in enumerate(pos)][first:]
                named += [(a, None) for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                          if d is not None]
                for arg, index in named:
                    out.append(("%s.%s(%s)" % (module, owner, arg.arg),
                                owner, arg.arg, index, child))
            visit(child, None)

    visit(tree, None)
    return out


def _calls(trees):
    """Every call with the function definition it sits in (or ``None``)."""
    out = []
    for tree in trees.values():
        stack = [(tree, None)]
        while stack:
            node, func = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    out.append((child, func))
                stack.append((child, child if isinstance(
                    child, ast.FunctionDef) else func))
    return out


def _name(node):
    """The name a call or a reference spells: ``f`` or ``x.f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _params(func):
    if func is None:
        return set()
    args = func.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


#: What a splat passes: a value that is not a forwarded parameter.
SPLAT = ast.Constant(value=None)


def _passed(call, func, param, index, named_by_callers):
    """The values ``call`` (made inside ``func``) passes for ``param``, by
    name or at position ``index``, with ``SPLAT`` for a ``*`` splat at or
    before ``index`` and for a ``**`` splat.  A ``**`` splat that forwards
    the ``**`` parameter of ``func`` passes only what callers of ``func``
    name, which ``named_by_callers`` maps by function name."""
    out = [kw.value for kw in call.keywords if kw.arg == param]
    if index is not None:
        out += call.args[index:index + 1]
        if any(isinstance(a, ast.Starred) for a in call.args[:index + 1]):
            out.append(SPLAT)
    kwarg = func.args.kwarg if func is not None else None
    for kw in call.keywords:
        if kw.arg is not None:
            continue
        if kwarg is None or _name(kw.value) != kwarg.arg \
                or param in named_by_callers.get(func.name, ()):
            out.append(SPLAT)
    return out


def test_every_keyword_option_has_a_setter():
    """A keyword option of ``src/regpart`` earns its place only if some
    call in the source, the benchmark, the demos or the tests passes it:
    by name, by position, or under a ``*`` splat.

    A call that forwards a parameter of its own function (``tol=tol``, or
    ``**kw``) passes what that function's callers pass, so it counts only
    when they set it.  A function handed to another call as
    a value may be called with anything, so its options count as set."""
    top = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    trees = _parse_all(top)
    options = []
    for path in sorted(glob.glob(os.path.join(top, "src", "regpart",
                                              "*.py"))):
        options += _defaulted_options(trees[path],
                                      os.path.basename(path)[:-3])
    calls = _calls(trees)
    by_func = {}
    for key, _, param, _, func in options:
        by_func.setdefault(id(func), {})[param] = key
    escaped = {_name(arg) for call, func in calls
               for arg in call.args + [kw.value for kw in call.keywords]
               if _name(arg) is not None and _name(arg) not in _params(func)}
    named_by_callers = {}
    for call, _ in calls:
        named_by_callers.setdefault(_name(call.func), set()).update(
            kw.arg for kw in call.keywords if kw.arg)

    done, edges = set(), {}
    for key, owner, param, index, _ in options:
        if owner in escaped:
            done.add(key)
        for call, func in calls:
            if _name(call.func) != owner:
                continue
            outer = by_func.get(id(func), {})
            for value in _passed(call, func, param, index, named_by_callers):
                if isinstance(value, ast.Name) and value.id in outer:
                    edges.setdefault(outer[value.id], set()).add(key)
                else:
                    done.add(key)
    todo = list(done)
    while todo:
        for nxt in edges.get(todo.pop(), ()):
            if nxt not in done:
                done.add(nxt)
                todo.append(nxt)

    unset = sorted(opt[0] for opt in options if opt[0] not in done)
    assert unset == [], "keyword options no call sets:\n" + "\n".join(unset)
