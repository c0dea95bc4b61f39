"""The invariant-lint rule engine.

One :class:`Rule` encodes one repo invariant as a check over a parsed
file (:class:`FileContext`); the engine walks every python file under a
root, runs the applicable rules, and merges their :class:`Finding`\\ s
with the file's inline suppressions into a :class:`LintReport`.

Suppression contract (enforced, not advisory):

* a line opts out of a rule with ``# repro: ignore[rule-id] -- reason``
  (several ids may be comma-separated inside the brackets);
* the reason is **mandatory** — a suppression without one is itself a
  finding (``suppression-missing-reason``);
* a suppression must still match a live finding on its line — one that
  no longer does is reported as ``stale-suppression``, so silenced rules
  cannot outlive the code they silenced;
* unknown rule ids are reported as ``unknown-rule``.

The engine-level rule ids above are deliberately not suppressible.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "Suppression",
    "FileContext",
    "Rule",
    "Pass",
    "register_rule",
    "register_pass",
    "all_rules",
    "all_passes",
    "known_rule_ids",
    "known_pass_rule_ids",
    "lint_paths",
    "lint_file",
    "run_lint",
    "LintReport",
    "default_root",
]

#: Matches ``repro: ignore[rule-a, rule-b] -- why`` comments — the reason
#: after ``--`` is mandatory (its absence is itself a finding, see the
#: module docstring).
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*ignore\[(?P<rules>[a-zA-Z0-9_,\s-]+)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)

#: Findings the engine itself emits about the suppression mechanism;
#: they cannot be suppressed (a silencer that silences its own audit is
#: no audit at all).
ENGINE_RULES = ("stale-suppression", "suppression-missing-reason", "unknown-rule", "syntax-error")


@dataclass(frozen=True)
class Finding:
    """One rule violation (or engine diagnostic) at a ``file:line``.

    ``suppressed`` findings matched an inline ``# repro: ignore`` comment
    and do not fail the build; their ``suppress_reason`` carries the
    justification the comment supplied.  Example::

        Finding(rule="lock-discipline", path="serving/service.py", line=393,
                message="self._threads written outside the lock", hint="...")
    """

    rule: str
    path: str  #: posix path relative to the lint root
    line: int
    message: str
    hint: str = ""
    suppressed: bool = False
    suppress_reason: str = ""

    def location(self) -> str:
        """The ``path:line`` anchor for terminal output."""
        return f"{self.path}:{self.line}"

    def to_dict(self) -> dict:
        """JSON-safe payload for ``repro lint --format json``."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
            "suppressed": self.suppressed,
            "suppress_reason": self.suppress_reason,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: ignore[...]`` comment.

    ``rules`` are the ids the line opts out of; ``reason`` is the text
    after ``--`` (empty when the author omitted it, which the engine
    reports).  Example::

        Suppression(line=161, rules=("typed-serving-errors",), reason="...")
    """

    line: int
    rules: tuple[str, ...]
    reason: str


class FileContext:
    """Everything a :class:`Rule` needs to check one parsed file.

    Rules receive the parsed ``tree`` plus raw ``source``/``lines`` and
    build findings through :meth:`finding`, which fills in the file path
    and the rule's default hint::

        def check(self, ctx):
            for node in ast.walk(ctx.tree):
                ...
                yield ctx.finding(self, node, "message")
    """

    def __init__(self, path: Path, relpath: str, source: str, tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    def finding(self, rule: "Rule", node, message: str, hint: str | None = None) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` (or an int line)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(
            rule=rule.id,
            path=self.relpath,
            line=line,
            message=message,
            hint=rule.hint if hint is None else hint,
        )


class Rule:
    """Base class for one lintable repo invariant.

    Subclasses set ``id`` (kebab-case, used in suppressions and CLI
    output), ``description`` (one sentence for ``docs/devtools.md`` and
    the JSON payload), ``hint`` (the default fix suggestion attached to
    findings) and ``paths`` (path prefixes relative to the lint root that
    the rule applies to; empty means every file), then implement
    :meth:`check`::

        @register_rule
        class NoFooRule(Rule):
            id = "no-foo"
            description = "foo() is forbidden"
            hint = "call bar() instead"
            paths = ("nn/",)

            def check(self, ctx):
                ...
    """

    id: str = ""
    description: str = ""
    hint: str = ""
    paths: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule runs on the file at ``relpath``."""
        if not self.paths:
            return True
        return any(relpath == p or relpath.startswith(p) for p in self.paths)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield this rule's findings for one file (override)."""
        raise NotImplementedError


class Pass:
    """Base class for one whole-tree semantic analysis pass.

    Where a :class:`Rule` checks one parsed file at a time, a pass sees
    the entire tree (and may build and run real package objects — the
    shape checker runs every registered model; the contract checker
    cross-references wire/CLI/docs surfaces).  Passes are opt-in:
    ``run_lint(checks=["shapes"])`` / ``repro lint --check shapes``.

    Subclasses set ``id`` (the check name used with ``--check``),
    ``description``, ``hint`` (default fix suggestion) and ``emits`` — a
    mapping of every finding rule id the pass can produce to its
    one-line description — then implement :meth:`run`::

        @register_pass
        class MyPass(Pass):
            id = "shapes"
            emits = {"model-shape-contract": "..."}

            def run(self, root):
                yield Finding(rule="model-shape-contract", ...)

    Findings in scanned ``.py`` files take part in the normal
    suppression mechanics; findings anchored outside the lint root
    (docs, fixtures, bench JSON) are reported as-is and cannot be
    comment-suppressed.
    """

    id: str = ""
    description: str = ""
    hint: str = ""
    emits: dict[str, str] = {}

    def run(self, root: Path) -> Iterable[Finding]:
        """Yield this pass's findings for the tree under ``root`` (override)."""
        raise NotImplementedError

    def finding(self, rule: str, path: str, line: int, message: str,
                hint: str | None = None) -> Finding:
        """Build a :class:`Finding` for this pass (``rule`` must be in ``emits``)."""
        if rule not in self.emits:
            raise ValueError(f"pass {self.id!r} does not declare rule {rule!r}")
        return Finding(
            rule=rule,
            path=path,
            line=line,
            message=message,
            hint=self.hint if hint is None else hint,
        )


_RULES: dict[str, Rule] = {}
_PASSES: dict[str, Pass] = {}


def register_rule(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the engine registry.

    Instantiates the class once and indexes it by ``id``; duplicate ids
    are a programming error and raise immediately::

        @register_rule
        class MyRule(Rule):
            id = "my-rule"
            ...
    """
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} must set a rule id")
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _RULES[rule.id] = rule
    return rule_cls


def register_pass(pass_cls: type[Pass]) -> type[Pass]:
    """Class decorator adding a semantic pass to the engine registry."""
    pass_ = pass_cls()
    if not pass_.id:
        raise ValueError(f"{pass_cls.__name__} must set a pass id")
    if pass_.id in _PASSES:
        raise ValueError(f"duplicate pass id {pass_.id!r}")
    if not pass_.emits:
        raise ValueError(f"pass {pass_.id!r} must declare its emitted rule ids")
    _PASSES[pass_.id] = pass_
    return pass_cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by id (imports the rule modules).

    The rule modules self-register on import, so this is the one entry
    point that guarantees the registry is populated::

        ids = [rule.id for rule in all_rules()]
    """
    from . import rules  # noqa: F401 - importing populates the registry

    return tuple(_RULES[rule_id] for rule_id in sorted(_RULES))


def all_passes() -> tuple[Pass, ...]:
    """Every registered semantic pass, sorted by id."""
    from . import passes  # noqa: F401 - importing populates the registry

    return tuple(_PASSES[pass_id] for pass_id in sorted(_PASSES))


def known_pass_rule_ids() -> frozenset:
    """Every finding rule id any registered pass can emit."""
    ids: set[str] = set()
    for pass_ in all_passes():
        ids.update(pass_.emits)
    return frozenset(ids)


def known_rule_ids() -> frozenset:
    """All suppressible rule ids plus the engine's own diagnostic ids."""
    return (
        frozenset(rule.id for rule in all_rules())
        | known_pass_rule_ids()
        | frozenset(ENGINE_RULES)
    )


def default_root() -> Path:
    """The installed ``repro`` package directory (the default lint root)."""
    import repro

    return Path(repro.__file__).resolve().parent


def lint_paths(root: Path) -> list[Path]:
    """The python files the linter scans under ``root``, sorted."""
    return sorted(p for p in Path(root).rglob("*.py"))


def _parse_suppressions(source: str) -> list[Suppression]:
    # Tokenize so only real COMMENT tokens count — the same text inside a
    # docstring (e.g. this engine documenting its own syntax) is a STRING
    # token and must not register as a suppression.
    found = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return found  # unparseable files are reported as syntax-error upstream
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        number = token.start[0]
        rules = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        found.append(
            Suppression(line=number, rules=rules, reason=(match.group("reason") or "").strip())
        )
    return found


def lint_file(
    path: Path,
    root: Path,
    rules: Iterable[Rule] | None = None,
    *,
    extra: Iterable[Finding] = (),
    active_pass_rule_ids: frozenset = frozenset(),
) -> list[Finding]:
    """Lint one file: rule findings merged with its suppression comments.

    ``extra`` carries pass findings pre-computed for this file so they
    share the suppression mechanics; ``active_pass_rule_ids`` names the
    pass-emitted rule ids whose producer actually ran this invocation —
    suppressions naming *inactive* pass rules are exempt from the
    stale-suppression audit (staleness cannot be judged when the pass
    that would match them was not run).

    Returns every finding — suppressed ones are included with
    ``suppressed=True`` so reports can show what is being silenced::

        findings = lint_file(Path("src/repro/nn/ops.py"), Path("src/repro"))
    """
    path = Path(path)
    root = Path(root)
    relpath = path.resolve().relative_to(root.resolve()).as_posix()
    source = path.read_text(encoding="utf-8")
    chosen = tuple(rules) if rules is not None else all_rules()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                rule="syntax-error",
                path=relpath,
                line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error; unparseable files cannot be linted",
            )
        ]
    ctx = FileContext(path, relpath, source, tree)
    raw: list[Finding] = []
    for rule in chosen:
        if rule.applies_to(relpath):
            raw.extend(rule.check(ctx))
    raw.extend(extra)

    suppressions = _parse_suppressions(ctx.source)
    by_line: dict[int, list[Suppression]] = {}
    for suppression in suppressions:
        by_line.setdefault(suppression.line, []).append(suppression)

    findings: list[Finding] = []
    matched: set[tuple[int, str]] = set()
    for finding in raw:
        cover = next(
            (
                s
                for s in by_line.get(finding.line, ())
                if finding.rule in s.rules and finding.rule not in ENGINE_RULES
            ),
            None,
        )
        if cover is not None:
            matched.add((cover.line, finding.rule))
            finding = Finding(
                rule=finding.rule,
                path=finding.path,
                line=finding.line,
                message=finding.message,
                hint=finding.hint,
                suppressed=True,
                suppress_reason=cover.reason,
            )
        findings.append(finding)

    known = known_rule_ids()
    pass_rule_ids = known_pass_rule_ids()
    for suppression in suppressions:
        if not suppression.reason:
            findings.append(
                Finding(
                    rule="suppression-missing-reason",
                    path=relpath,
                    line=suppression.line,
                    message="suppression has no reason; append `-- <why>`",
                    hint="every `# repro: ignore[...]` must justify itself",
                )
            )
        for rule_id in suppression.rules:
            if rule_id not in known:
                findings.append(
                    Finding(
                        rule="unknown-rule",
                        path=relpath,
                        line=suppression.line,
                        message=f"suppression names unknown rule {rule_id!r}",
                        hint="check the rule id against `repro lint --list-rules`",
                    )
                )
            elif rule_id in ENGINE_RULES:
                findings.append(
                    Finding(
                        rule="unknown-rule",
                        path=relpath,
                        line=suppression.line,
                        message=f"engine diagnostic {rule_id!r} cannot be suppressed",
                        hint="fix the underlying suppression instead",
                    )
                )
            elif rule_id in pass_rule_ids and rule_id not in active_pass_rule_ids:
                # The pass that emits this rule did not run in this
                # invocation, so staleness cannot be judged.
                continue
            elif (suppression.line, rule_id) not in matched:
                findings.append(
                    Finding(
                        rule="stale-suppression",
                        path=relpath,
                        line=suppression.line,
                        message=(
                            f"suppression for {rule_id!r} matches no finding on "
                            "this line; delete it"
                        ),
                        hint="stale suppressions hide future regressions",
                    )
                )
    return findings


@dataclass
class LintReport:
    """The result of one lint run over a file tree.

    ``findings`` holds every finding (suppressed included);
    ``unsuppressed`` is what should fail a build.  Render with
    :meth:`render_text` / :meth:`to_json`::

        report = run_lint()
        print(report.render_text())
        raise SystemExit(report.exit_code())
    """

    root: str
    files_scanned: int
    findings: list[Finding] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)

    @property
    def unsuppressed(self) -> list[Finding]:
        """Findings not silenced by an inline suppression (build-failing)."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        """Findings silenced by a reasoned inline suppression."""
        return [f for f in self.findings if f.suppressed]

    def exit_code(self) -> int:
        """Process exit status: 0 when clean, 1 on any unsuppressed finding."""
        return 1 if self.unsuppressed else 0

    def to_json(self) -> str:
        """The whole report as a JSON document (schema ``repro.lint/v1``)."""
        rules = {rule.id: rule.description for rule in all_rules()}
        for pass_ in all_passes():
            rules.update(pass_.emits)
        return json.dumps(
            {
                "schema": "repro.lint/v1",
                "root": self.root,
                "files_scanned": self.files_scanned,
                "checks": self.checks,
                "rules": rules,
                "findings": [f.to_dict() for f in self.findings],
                "summary": {
                    "total": len(self.findings),
                    "unsuppressed": len(self.unsuppressed),
                    "suppressed": len(self.suppressed),
                },
            },
            indent=2,
        )

    def render_text(self, show_suppressed: bool = False) -> str:
        """Human-readable report: one ``path:line: [rule] message`` per finding."""
        out = []
        shown = self.findings if show_suppressed else self.unsuppressed
        for finding in sorted(shown, key=lambda f: (f.path, f.line, f.rule)):
            tag = " (suppressed)" if finding.suppressed else ""
            out.append(f"{finding.location()}: [{finding.rule}]{tag} {finding.message}")
            if finding.hint:
                out.append(f"    hint: {finding.hint}")
            if finding.suppressed and finding.suppress_reason:
                out.append(f"    reason: {finding.suppress_reason}")
        active = len(self.unsuppressed)
        out.append(
            f"{'clean' if not active else 'FAILED'}: {active} unsuppressed finding(s), "
            f"{len(self.suppressed)} suppressed, {self.files_scanned} files scanned"
        )
        return "\n".join(out)


def run_lint(
    root: Path | str | None = None,
    rules: Iterable[Rule] | None = None,
    checks: Iterable[str] | None = None,
) -> LintReport:
    """Lint every python file under ``root`` (default: the repro package).

    ``checks`` opts into the semantic passes by id (``"shapes"``,
    ``"contracts"``); the default ``None`` runs only the per-file rules,
    preserving the PR 7 behaviour.  Pass findings inside scanned files
    share the suppression mechanics; findings anchored elsewhere (docs,
    fixtures, bench JSON) are reported as-is.

    The one-call entry point the CLI, CI and the ``lint_smoke`` tests all
    use::

        report = run_lint(checks=["shapes", "contracts"])
        assert report.exit_code() == 0, report.render_text()
    """
    root = Path(root) if root is not None else default_root()
    chosen = tuple(rules) if rules is not None else all_rules()

    active_passes: tuple[Pass, ...] = ()
    if checks is not None:
        registry = {pass_.id: pass_ for pass_ in all_passes()}
        missing = [name for name in checks if name not in registry]
        if missing:
            raise ValueError(
                f"unknown check(s) {', '.join(sorted(missing))!s}; "
                f"available: {', '.join(sorted(registry))}"
            )
        active_passes = tuple(registry[name] for name in checks)
    active_pass_rule_ids = frozenset(
        rule_id for pass_ in active_passes for rule_id in pass_.emits
    )

    pass_findings_by_path: dict[str, list[Finding]] = {}
    for pass_ in active_passes:
        for finding in pass_.run(root):
            pass_findings_by_path.setdefault(finding.path, []).append(finding)

    findings: list[Finding] = []
    files = lint_paths(root)
    scanned_relpaths = set()
    for path in files:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
        scanned_relpaths.add(relpath)
        findings.extend(
            lint_file(
                path,
                root,
                chosen,
                extra=pass_findings_by_path.get(relpath, ()),
                active_pass_rule_ids=active_pass_rule_ids,
            )
        )
    for relpath, extras in pass_findings_by_path.items():
        if relpath not in scanned_relpaths:
            # Anchored outside the scanned tree (docs/fixtures/bench
            # JSON): no comment-suppression surface, reported directly.
            findings.extend(extras)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintReport(
        root=str(root),
        files_scanned=len(files),
        findings=findings,
        checks=[pass_.id for pass_ in active_passes],
    )
