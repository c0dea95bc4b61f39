"""The ``contracts`` pass: cross-surface consistency checks.

Every check here ties two surfaces together that drift independently:

* ``serving.rpc.ERROR_CODES`` ↔ ``serving.errors.__all__`` — every
  exported error class has exactly one wire code and vice versa, and
  subclasses precede their bases so ``encode_error``'s isinstance walk
  picks the specific code.
* RPC golden fixtures ↔ the codec — each fixture file under
  ``tests/serving/fixtures/rpc/`` must decode through the codec
  function matching its filename, and the error fixtures must cover the
  code table exactly.
* CLI flags ↔ docs — every long ``--flag`` that ``build_parser()``
  exposes must be mentioned somewhere in ``docs/*.md`` or ``README.md``.
* Registry ↔ docs — every registered model name appears in the docs.

The repo root is the nearest ancestor of the lint root holding the
surfaces these checks read: ``docs/`` and the RPC fixture directory.
Findings anchored in package files (``serving/rpc.py``, ``cli.py``,
``api/registry.py``) are lint-root relative and suppressible; findings
in repo files (``docs/``, ``tests/``) are repo-root relative and
reported as-is.  An unlocatable repo root is itself a finding — the
pass never silently passes.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..engine import Finding, Pass, register_pass
from .shapes import registration_lines

__all__ = ["ContractsPass"]

#: fixture stem -> codec decode function name in repro.serving.rpc
_FIXTURE_DECODERS = {
    "predict_request": "decode_predict_request",
    "predict_response": "decode_predict_response",
    "batch_request": "decode_batch_request",
    "batch_response": "decode_batch_response",
}
_FIXTURE_DIR = "tests/serving/fixtures/rpc"


def _find_repo_root(root: Path) -> Path | None:
    """Walk up from the lint root to the checkout holding the contract
    surfaces (``docs/`` + the RPC fixture directory)."""
    for candidate in (Path(root).resolve(), *Path(root).resolve().parents):
        if (candidate / "docs").is_dir() and (candidate / _FIXTURE_DIR).is_dir():
            return candidate
    return None


def _line_of(path: Path, needle: str) -> int:
    try:
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            if needle in line:
                return i + 1
    except OSError:
        pass
    return 1


@register_pass
class ContractsPass(Pass):
    """Prove the wire/CLI/docs/bench surfaces agree with the code."""

    id = "contracts"
    description = (
        "cross-surface contracts: error taxonomy ↔ wire codes, RPC fixtures "
        "↔ codec, CLI flags ↔ docs, registry ↔ docs"
    )
    hint = "update the drifting surface named in the message"
    emits = {
        "error-code-bijection": (
            "serving.rpc.ERROR_CODES and serving.errors.__all__ are not a "
            "bijection, or a base class precedes its subclass in the code "
            "table"
        ),
        "rpc-fixture-schema": (
            "a golden RPC fixture no longer decodes through the codec, or "
            "the error fixtures do not cover the code table exactly"
        ),
        "cli-docs-drift": (
            "a CLI flag exposed by build_parser() is not mentioned anywhere "
            "in docs/ or README.md"
        ),
        "registry-docs-drift": (
            "a registered model name is not mentioned anywhere in docs/ or "
            "README.md"
        ),
        "contract-surface-missing": (
            "no ancestor of the lint root holds docs/ and the RPC fixtures, "
            "so the fixture and docs checks could not run"
        ),
    }

    def run(self, root: Path):
        root = Path(root)
        yield from self._check_error_codes(root)
        repo = _find_repo_root(root)
        if repo is None:
            yield self.finding(
                "contract-surface-missing",
                _FIXTURE_DIR,
                1,
                f"no ancestor of the lint root holds docs/ + {_FIXTURE_DIR}/; "
                "fixture/docs contracts were not checked",
            )
            return
        docs_text = self._docs_text(repo)
        yield from self._check_fixtures(repo)
        yield from self._check_cli_docs(root, docs_text)
        yield from self._check_registry_docs(root, docs_text)

    # -- error taxonomy ↔ wire codes ----------------------------------
    def _check_error_codes(self, root: Path):
        from ....serving import errors as errors_mod
        from ....serving.rpc import ERROR_CODES

        rpc_rel = "serving/rpc.py"
        anchor = _line_of(root / rpc_rel, "ERROR_CODES")
        entries = list(ERROR_CODES.items())
        coded = [cls for cls, _status in ERROR_CODES.values()]
        exported = [getattr(errors_mod, name) for name in errors_mod.__all__]

        if len(set(coded)) != len(coded):
            dupes = sorted(
                {c.__name__ for c in coded if coded.count(c) > 1}
            )
            yield self.finding(
                "error-code-bijection",
                rpc_rel,
                anchor,
                f"ERROR_CODES maps {', '.join(dupes)} more than once",
            )
        for cls in exported:
            if cls not in coded:
                yield self.finding(
                    "error-code-bijection",
                    rpc_rel,
                    anchor,
                    f"serving.errors exports {cls.__name__} but ERROR_CODES "
                    "assigns it no wire code",
                )
        for code, (cls, _status) in entries:
            if cls not in exported:
                yield self.finding(
                    "error-code-bijection",
                    rpc_rel,
                    anchor,
                    f"wire code {code!r} maps {cls.__name__}, which "
                    "serving.errors.__all__ does not export",
                )
        # encode_error walks the table in order and takes the first
        # isinstance match: a base listed before its subclass would
        # swallow the subclass's code.
        for i, (code_i, (cls_i, _si)) in enumerate(entries):
            for code_j, (cls_j, _sj) in entries[i + 1 :]:
                if cls_j is not cls_i and issubclass(cls_j, cls_i):
                    yield self.finding(
                        "error-code-bijection",
                        rpc_rel,
                        anchor,
                        f"{cls_j.__name__} ({code_j!r}) is listed after its "
                        f"base {cls_i.__name__} ({code_i!r}); encode_error "
                        f"would emit {code_i!r} for it",
                    )

    # -- RPC fixtures ↔ codec -----------------------------------------
    def _check_fixtures(self, repo: Path):
        from ....serving import rpc
        from ....serving.rpc import ERROR_CODES, RPC_SCHEMA

        fixture_dir = repo / _FIXTURE_DIR
        expected = set(_FIXTURE_DECODERS) | {
            "error_responses",
            "health_response",
            "stats_response",
        }
        present = {p.stem for p in fixture_dir.glob("*.json")}
        for stem in sorted(expected - present):
            yield self.finding(
                "rpc-fixture-schema",
                f"{_FIXTURE_DIR}/{stem}.json",
                1,
                f"golden fixture {stem}.json is missing",
            )

        for path in sorted(fixture_dir.glob("*.json")):
            rel = f"{_FIXTURE_DIR}/{path.name}"
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:
                yield self.finding(
                    "rpc-fixture-schema", rel, 1, f"fixture is not JSON: {exc}"
                )
                continue
            if path.stem in _FIXTURE_DECODERS:
                decoder = getattr(rpc, _FIXTURE_DECODERS[path.stem])
                try:
                    decoder(payload)
                except Exception as exc:
                    yield self.finding(
                        "rpc-fixture-schema",
                        rel,
                        1,
                        f"fixture no longer decodes through "
                        f"{_FIXTURE_DECODERS[path.stem]}: {exc}",
                    )
            elif path.stem == "error_responses":
                yield from self._check_error_fixture(payload, rel, ERROR_CODES, rpc)
            elif path.stem in ("health_response", "stats_response"):
                if payload.get("schema") != RPC_SCHEMA:
                    yield self.finding(
                        "rpc-fixture-schema",
                        rel,
                        1,
                        f"fixture schema {payload.get('schema')!r} != "
                        f"{RPC_SCHEMA!r}",
                    )
            else:
                yield self.finding(
                    "rpc-fixture-schema",
                    rel,
                    1,
                    "fixture has no matching codec function; name it after "
                    "one or extend the codec",
                )

    def _check_error_fixture(self, payload, rel: str, error_codes, rpc):
        fixture_codes = set(payload)
        table_codes = set(error_codes)
        for code in sorted(table_codes - fixture_codes):
            yield self.finding(
                "rpc-fixture-schema",
                rel,
                1,
                f"wire code {code!r} has no golden error fixture",
            )
        for code in sorted(fixture_codes - table_codes):
            yield self.finding(
                "rpc-fixture-schema",
                rel,
                1,
                f"fixture covers {code!r}, which ERROR_CODES does not define",
            )
        for code in sorted(fixture_codes & table_codes):
            entry = payload[code]
            cls, status = error_codes[code]
            if entry.get("status") != status:
                yield self.finding(
                    "rpc-fixture-schema",
                    rel,
                    1,
                    f"fixture status {entry.get('status')} for {code!r} != "
                    f"ERROR_CODES status {status}",
                )
            try:
                decoded = rpc.decode_error(entry["payload"])
            except Exception as exc:
                yield self.finding(
                    "rpc-fixture-schema",
                    rel,
                    1,
                    f"error fixture {code!r} no longer decodes: {exc}",
                )
                continue
            if not isinstance(decoded, cls):
                yield self.finding(
                    "rpc-fixture-schema",
                    rel,
                    1,
                    f"error fixture {code!r} decodes to "
                    f"{type(decoded).__name__}, not {cls.__name__}",
                )

    # -- CLI flags ↔ docs ---------------------------------------------
    def _docs_text(self, repo: Path) -> str:
        parts = [
            p.read_text(encoding="utf-8") for p in sorted((repo / "docs").glob("*.md"))
        ]
        readme = repo / "README.md"
        if readme.is_file():
            parts.append(readme.read_text(encoding="utf-8"))
        return "\n".join(parts)

    def _check_cli_docs(self, root: Path, docs_text: str):
        import argparse

        from ....cli import build_parser

        cli_path = root / "cli.py"
        parser = build_parser()
        flags: set[str] = set()
        stack = [parser]
        while stack:
            current = stack.pop()
            for action in current._actions:
                if isinstance(action, argparse._SubParsersAction):
                    stack.extend(action.choices.values())
                    continue
                flags.update(
                    s for s in action.option_strings if s.startswith("--")
                )
        flags.discard("--help")
        for flag in sorted(flags):
            if flag not in docs_text:
                yield self.finding(
                    "cli-docs-drift",
                    "cli.py",
                    _line_of(cli_path, f'"{flag}"'),
                    f"CLI flag {flag} is not mentioned in docs/ or README.md",
                )

    # -- registry names ↔ docs ----------------------------------------
    def _check_registry_docs(self, root: Path, docs_text: str):
        from ....api.registry import REGISTRY

        relpath, anchors = registration_lines(root)
        for name in REGISTRY.names():
            if name not in docs_text:
                yield self.finding(
                    "registry-docs-drift",
                    relpath,
                    anchors.get(name, 1),
                    f"registered model {name!r} is not mentioned in docs/ or "
                    "README.md",
                )
