"""Determinism / fork-safety linter (``repro lint``).

The repository's central invariant is that every prediction is a pure
function of ``(deployment, rows, seed)`` — byte-identical across
engines, shards, replicas and resumes.  The dynamic test suites check
that invariant on the code paths they execute; this AST pass *rejects*
the patterns that break it before they execute anywhere:

==========================  ===========================================
rule                        fires on
==========================  ===========================================
``unseeded-rng``            ``np.random.default_rng()`` /
                            ``random.Random()`` with no seed, or draws
                            from the process-global RNGs
                            (``np.random.normal(...)``,
                            ``random.random()``, ``np.random.seed``).
``wallclock-entropy``       ``time.time`` / ``datetime.now`` /
                            ``os.urandom`` / ``uuid.uuid4`` /
                            ``secrets.*`` inside determinism-critical
                            modules (mask plans, fingerprints, the
                            fixed-point compiler).
``set-iteration``           iterating a set expression (set literal,
                            set comprehension, ``set(...)`` /
                            ``frozenset(...)`` call) in a ``for`` or a
                            comprehension — iteration order is not
                            stable across processes under string-hash
                            randomization.
``unordered-float-sum``     ``sum(...)`` over a set expression or
                            ``dict.values()`` — float accumulation
                            order changes the bytes of the result.
``fork-shared-mutation``    assigning into ``*.tensors[...]`` or a
                            ``.data`` attribute inside the fork-using
                            modules (:data:`FORK_MODULES`) outside the
                            sanctioned ``rebind_tensors`` path —
                            mutating a shared-memory view after fork
                            silently diverges the replicas.
``fingerprint-sort``        ``json.dumps`` without ``sort_keys=True``
                            in fingerprint/artifact modules — dict
                            order must never reach a hash or a
                            persisted byte stream.
``broad-except``            ``except:`` / ``except Exception`` /
                            ``except BaseException`` inside the
                            serve/search/faults stacks and the worker
                            substrate — handlers wide enough to
                            swallow injected faults (and real ones)
                            silently; catch the specific transport or
                            shed errors, or annotate the survival
                            points with ``# repro: allow[...]``.
==========================  ===========================================

Findings are suppressed inline with ``# repro: allow[<rule>]`` on the
offending statement's first line — grep-able, per-line, per-rule.  The
linter itself is deterministic: files walk sorted, findings sort by
``(path, line, col, rule)``.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Suppression comment syntax: ``# repro: allow[rule-id]``.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([a-z0-9-]+)\]")

#: Modules whose randomness/time discipline feeds mask plans or
#: fingerprints; ``wallclock-entropy`` fires only here.
CRITICAL_MODULES = (
    "repro/dropout/",
    "repro/hw/compile/",
    "repro/hw/fixed_point.py",
    "repro/api/spec.py",
    "repro/serve/deployment.py",
    "repro/utils/rng.py",
    "repro/nn/inference.py",
    "repro/search/evaluator.py",
    "repro/analysis/",
    "repro/faults/",
)

#: Modules that hash or persist canonical byte streams;
#: ``fingerprint-sort`` fires only here.
FINGERPRINT_MODULES = (
    "repro/api/spec.py",
    "repro/api/stages.py",
    "repro/api/artifacts.py",
    "repro/serve/deployment.py",
    "repro/search/evaluator.py",
    "repro/analysis/",
)

#: Post-fork shared-memory domain; ``fork-shared-mutation`` fires only
#: here.
FORK_MODULES = (
    "repro/serve/",
    "repro/search/async_ea.py",
    "repro/workers",
)

#: Fault-injected recovery domain; ``broad-except`` fires only here —
#: a handler wide enough to swallow an injected fault would make the
#: chaos suite (and real incidents) silently pass through it.
BROAD_EXCEPT_MODULES = (
    "repro/serve/",
    "repro/search/",
    "repro/faults/",
    "repro/workers",
)

#: Functions allowed to repoint shared tensors (the sanctioned path).
SANCTIONED_REBINDERS = ("rebind_tensors",)

#: Global-RNG draw functions on ``np.random`` (module-level state).
_NP_GLOBAL_DRAWS = {
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "choice", "shuffle", "permutation", "normal", "uniform", "binomial",
    "standard_normal", "poisson", "beta", "gamma", "exponential",
}

#: Global-RNG draw functions on the stdlib ``random`` module.
_STDLIB_GLOBAL_DRAWS = {
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "getrandbits", "randbytes",
}

#: Wall-clock / OS-entropy callables (dotted-suffix match).
_WALLCLOCK_SUFFIXES = (
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "date.today", "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
    "secrets.choice",
)

#: Every rule id the linter knows (the ``repro lint`` rules table).
RULES = (
    "unseeded-rng",
    "wallclock-entropy",
    "set-iteration",
    "unordered-float-sum",
    "fork-shared-mutation",
    "fingerprint-sort",
    "broad-except",
)


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: rule: message`` (editor-clickable)."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule}: {self.message}")

    def to_dict(self) -> dict:
        """JSON view (``repro lint --json``)."""
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}


def _module_key(path: str) -> str:
    """Normalized forward-slash path for scope matching."""
    return path.replace(os.sep, "/")


def _in_scope(path: str, scopes: Sequence[str]) -> bool:
    key = _module_key(path)
    return any(scope in key for scope in scopes)


def _dotted(node: ast.AST) -> Optional[str]:
    """Dotted name of an attribute/name expression, or ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to a set (literal, comp, or call)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name in ("set", "frozenset")
    return False


def _is_dict_values(node: ast.AST) -> bool:
    """Whether ``node`` is a bare ``<expr>.values()`` call."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "values"
            and not node.args and not node.keywords)


class _Visitor(ast.NodeVisitor):
    """Single-file AST walk collecting rule violations."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[LintFinding] = []
        self._function_stack: List[str] = []
        self._critical = _in_scope(path, CRITICAL_MODULES)
        self._fingerprint = _in_scope(path, FINGERPRINT_MODULES)
        self._fork = _in_scope(path, FORK_MODULES)
        self._recovery = _in_scope(path, BROAD_EXCEPT_MODULES)

    # -- bookkeeping ---------------------------------------------------
    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(LintFinding(
            path=self.path, line=node.lineno, col=node.col_offset + 1,
            rule=rule, message=message))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    # -- unseeded-rng / wallclock-entropy / fingerprint-sort -----------
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name:
            self._check_rng_call(node, name)
            self._check_wallclock(node, name)
            self._check_json_dumps(node, name)
            self._check_unordered_sum(node, name)
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call, name: str) -> None:
        leaf = name.rsplit(".", 1)[-1]
        if (name.endswith("random.default_rng") or name == "default_rng"
                or name.endswith("random.Random") or name == "Random"):
            if not node.args and not node.keywords:
                self._report(
                    node, "unseeded-rng",
                    f"{name}() constructs an OS-entropy generator; pass "
                    f"an explicit seed (repro.utils.rng.new_rng)")
            return
        if name.startswith(("np.random.", "numpy.random.")):
            if leaf in _NP_GLOBAL_DRAWS:
                self._report(
                    node, "unseeded-rng",
                    f"{name} uses the process-global numpy RNG; thread "
                    f"an explicit np.random.Generator instead")
        elif name.startswith("random.") and name.count(".") == 1:
            if leaf in _STDLIB_GLOBAL_DRAWS:
                self._report(
                    node, "unseeded-rng",
                    f"{name} uses the process-global stdlib RNG; use a "
                    f"seeded random.Random instance instead")

    def _check_wallclock(self, node: ast.Call, name: str) -> None:
        if not self._critical:
            return
        if any(name == s or name.endswith("." + s)
               for s in _WALLCLOCK_SUFFIXES):
            self._report(
                node, "wallclock-entropy",
                f"{name} reads wall-clock/OS entropy inside a "
                f"determinism-critical module; derive values from the "
                f"experiment seed instead")

    def _check_json_dumps(self, node: ast.Call, name: str) -> None:
        if not self._fingerprint:
            return
        if not (name == "json.dumps" or name.endswith(".json.dumps")):
            return
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                if (isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True):
                    return
        self._report(
            node, "fingerprint-sort",
            "json.dumps without sort_keys=True in a fingerprint/"
            "artifact module; dict order must not reach hashes or "
            "persisted bytes")

    def _check_unordered_sum(self, node: ast.Call, name: str) -> None:
        if name not in ("sum", "math.fsum"):
            return
        if not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, ast.GeneratorExp):
            # sum(f(x) for x in <iter>): inspect the innermost source.
            arg = arg.generators[0].iter
        if _is_set_expr(arg) or _is_dict_values(arg):
            self._report(
                node, "unordered-float-sum",
                f"{name}() over an unordered container: float "
                f"accumulation order is unstable across processes; "
                f"sort first or sum an ordered sequence")

    # -- set-iteration -------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def _check_set_iteration(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self._report(
                iter_node, "set-iteration",
                "iterating a set: order is unstable across processes "
                "under hash randomization; iterate sorted(...) or an "
                "ordered container")

    # -- broad-except --------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._recovery:
            self._check_broad_handler(node)
        self.generic_visit(node)

    def _check_broad_handler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node, "broad-except",
                "bare except in a fault-injected recovery module: it "
                "swallows injected faults (and real ones) silently; "
                "catch the specific transport/shed errors")
            return
        types = (node.type.elts if isinstance(node.type, ast.Tuple)
                 else [node.type])
        for expr in types:
            name = _dotted(expr)
            if name in ("Exception", "BaseException",
                        "builtins.Exception", "builtins.BaseException"):
                self._report(
                    node, "broad-except",
                    f"except {name} in a fault-injected recovery "
                    f"module: wide enough to swallow injected faults; "
                    f"narrow the handler or annotate the survival "
                    f"point with '# repro: allow[broad-except]'")
                return

    # -- fork-shared-mutation ------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_shared_mutation(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_shared_mutation(node.target)
        self.generic_visit(node)

    def _check_shared_mutation(self, target: ast.AST) -> None:
        if not self._fork:
            return
        if any(fn in SANCTIONED_REBINDERS for fn in self._function_stack):
            return
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "tensors"):
            self._report(
                target, "fork-shared-mutation",
                "assignment into *.tensors[...] outside rebind_tensors: "
                "repoint shared kernel tensors only through the "
                "sanctioned rebind path")
        elif isinstance(target, ast.Attribute) and target.attr == "data":
            self._report(
                target, "fork-shared-mutation",
                "assignment to a .data attribute in the post-fork "
                "serving domain: mutating shared-memory parameter views "
                "diverges replicas; use the sanctioned rebind path")


def _suppressed_lines(source: str) -> Dict[int, Set[str]]:
    """``# repro: allow[rule]`` comments, keyed by physical line."""
    allowed: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            for match in _ALLOW_RE.finditer(token.string):
                allowed.setdefault(token.start[0], set()).add(
                    match.group(1))
    except tokenize.TokenizeError:
        pass
    return allowed


def lint_source(source: str, path: str) -> List[LintFinding]:
    """Lint one module's source text.

    Args:
        source: the module text.
        path: its (repo-relative or absolute) path — drives the
            per-rule module scoping and appears in findings.

    Returns:
        Findings sorted by ``(line, col, rule)``, suppressions applied.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path=path, line=exc.lineno or 1,
                            col=(exc.offset or 0) + 1, rule="syntax-error",
                            message=f"cannot parse: {exc.msg}")]
    visitor = _Visitor(path)
    visitor.visit(tree)
    allowed = _suppressed_lines(source)
    findings = [f for f in visitor.findings
                if f.rule not in allowed.get(f.line, ())]
    return sorted(findings, key=lambda f: (f.line, f.col, f.rule))


def lint_file(path: str) -> List[LintFinding]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path)


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d != "__pycache__"
                                 and not d.startswith("."))
                files.extend(os.path.join(root, name)
                             for name in sorted(names)
                             if name.endswith(".py"))
        elif path.endswith(".py"):
            files.append(path)
        else:
            raise ValueError(
                f"lint target {path!r} is neither a directory nor a "
                f".py file")
    return sorted(dict.fromkeys(files))


def lint_paths(paths: Iterable[str]) -> List[LintFinding]:
    """Lint every Python file under ``paths`` (deterministic order)."""
    findings: List[LintFinding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path))
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.col, f.rule))


def render_findings(findings: Sequence[LintFinding]) -> str:
    """One line per finding plus a summary tail."""
    lines = [finding.render() for finding in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


__all__ = [
    "BROAD_EXCEPT_MODULES",
    "CRITICAL_MODULES",
    "FINGERPRINT_MODULES",
    "FORK_MODULES",
    "LintFinding",
    "RULES",
    "SANCTIONED_REBINDERS",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_findings",
]
