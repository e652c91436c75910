"""Core of the ``repro.lint`` static analyzer.

The analyzer is a thin, repo-specific layer over :mod:`ast`: each *rule*
is a function registered with :func:`register_rule` that receives a
:class:`ModuleContext` (parsed tree, parent map, source lines, ``noqa``
comments) and yields :class:`Finding` objects.  Rules encode invariants
the test suite cannot see statically — digest purity, deterministic
iteration, fork/worker safety, registry hygiene, tracer hot-path guards.

Suppression happens at two levels:

* inline — a ``# noqa`` comment on the flagged line (optionally scoped,
  ``# noqa: REP004``) silences findings on that line;
* baseline — a committed JSON file of grandfathered findings keyed
  without line numbers (see :mod:`repro.lint.baseline`), so pre-existing
  debt does not block the CI gate while new findings do.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "LintReport",
    "ModuleContext",
    "Rule",
    "RULES",
    "dotted_name",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register_rule",
    "walk_scope",
]

SEVERITIES = ("error", "warning")

# Rule id used for files that fail to parse; always an error and never
# eligible for baseline grandfathering by `--write-baseline` users.
PARSE_RULE = "REP000"

_NOQA_RE = re.compile(
    r"#\s*noqa(?P<scoped>:\s*(?P<rules>[A-Z]{2,4}\d{3}(?:\s*,\s*[A-Z]{2,4}\d{3})*))?",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def key(self) -> str:
        """Line-number-free identity used by the baseline file.

        Keyed on (rule, path, stripped source line) so findings survive
        unrelated edits that only shift line numbers.
        """

        return f"{self.rule}:{self.path}:{self.snippet}"

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


def dotted_name(node: ast.AST) -> str | None:
    """Return ``a.b.c`` for a Name/Attribute chain, else ``None``."""

    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Yield every node lexically inside ``scope`` without descending
    into nested function/class/lambda scopes."""

    todo: deque[ast.AST] = deque(ast.iter_child_nodes(scope))
    while todo:
        node = todo.popleft()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue
        todo.extend(ast.iter_child_nodes(node))


class ModuleContext:
    """Everything a rule needs to analyse one module."""

    def __init__(self, relpath: str, source: str, tree: ast.Module) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.parents: dict[ast.AST, ast.AST | None] = {tree: None}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        self._noqa: dict[int, frozenset[str] | None] | None = None

    # -- navigation ---------------------------------------------------

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield parents of ``node`` from innermost outwards."""

        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def scopes(self) -> Iterator[ast.AST]:
        """Yield the module plus every function/class body as a scope."""

        yield self.tree
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node

    # -- source access ------------------------------------------------

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def line_has_pragma(self, lineno: int) -> bool:
        """Whether the source line carries a ``# pragma`` justification."""

        return "# pragma" in self.line_text(lineno)

    def noqa_rules(self, lineno: int) -> frozenset[str] | None:
        """``None`` if the line has no ``noqa``; an empty set for a
        blanket ``# noqa``; the rule ids for a scoped one."""

        if self._noqa is None:
            self._noqa = {}
            for index, text in enumerate(self.lines, start=1):
                match = _NOQA_RE.search(text)
                if match is None:
                    continue
                rules = match.group("rules")
                if rules is None:
                    self._noqa[index] = frozenset()
                else:
                    self._noqa[index] = frozenset(
                        part.strip().upper() for part in rules.split(",")
                    )
        return self._noqa.get(lineno)

    # -- finding construction -----------------------------------------

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        rule = RULES[rule_id]
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule_id,
            severity=rule.severity,
            path=self.relpath,
            line=line,
            col=col,
            message=message,
            snippet=self.line_text(line).strip(),
        )


RuleCheck = Callable[[ModuleContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule plus its path applicability filters."""

    id: str
    name: str
    severity: str
    description: str
    check: RuleCheck
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        path = relpath.replace("\\", "/")
        if self.include and not any(fragment in path for fragment in self.include):
            return False
        return not any(fragment in path for fragment in self.exclude)


RULES: dict[str, Rule] = {}


def register_rule(
    rule_id: str,
    *,
    name: str,
    severity: str = "error",
    description: str = "",
    include: Sequence[str] = (),
    exclude: Sequence[str] = (),
) -> Callable[[RuleCheck], RuleCheck]:
    """Decorator registering a rule function under ``rule_id``.

    ``include``/``exclude`` are path fragments matched against the
    module's posix relpath; an empty ``include`` means "every module".
    """

    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}; expected one of {SEVERITIES}")

    def decorator(check: RuleCheck) -> RuleCheck:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        summary = description or (check.__doc__ or "").strip().splitlines()[0]
        RULES[rule_id] = Rule(
            id=rule_id,
            name=name,
            severity=severity,
            description=summary,
            check=check,
            include=tuple(include),
            exclude=tuple(exclude),
        )
        return check

    return decorator


def _parse_finding(relpath: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule=PARSE_RULE,
        severity="error",
        path=relpath,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"syntax error: {exc.msg}",
        snippet=(exc.text or "").strip(),
    )


def _select_rules(rule_ids: Sequence[str] | None) -> list[Rule]:
    if rule_ids is None:
        return list(RULES.values())
    missing = [rule_id for rule_id in rule_ids if rule_id not in RULES]
    if missing:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(missing))}")
    return [RULES[rule_id] for rule_id in rule_ids]


def lint_source(
    source: str,
    relpath: str = "<snippet>",
    rules: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint one module's source text; returns noqa-filtered findings."""

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_parse_finding(relpath, exc)]
    ctx = ModuleContext(relpath, source, tree)
    findings: list[Finding] = []
    for rule in _select_rules(rules):
        if not rule.applies_to(ctx.relpath):
            continue
        findings.extend(rule.check(ctx))
    visible = []
    for finding in findings:
        noqa = ctx.noqa_rules(finding.line)
        if noqa is not None and (not noqa or finding.rule in noqa):
            continue
        visible.append(finding)
    visible.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return visible


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        path = Path(path)
        if not path.exists():
            # A typo'd path must not produce a green "0 findings" gate.
            raise FileNotFoundError(f"lint target does not exist: {path}")
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if "__pycache__" not in file.parts:
                    yield file
        elif path.suffix == ".py":
            yield path


@dataclass
class LintReport:
    """Raw lint results for a set of files, before baseline filtering."""

    files: int = 0
    findings: list[Finding] = field(default_factory=list)


def lint_paths(
    paths: Sequence[Path | str],
    root: Path | str | None = None,
    rules: Sequence[str] | None = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths``.

    Finding paths are reported relative to ``root`` (default: the
    current working directory) so baseline keys are stable regardless of
    where the analyzer is invoked from.
    """

    root_path = Path(root or Path.cwd()).resolve()
    report = LintReport()
    for file in iter_python_files(Path(p) for p in paths):
        resolved = file.resolve()
        try:
            relpath = resolved.relative_to(root_path).as_posix()
        except ValueError:
            relpath = resolved.as_posix()
        source = resolved.read_text(encoding="utf-8")
        report.files += 1
        report.findings.extend(lint_source(source, relpath, rules))
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
