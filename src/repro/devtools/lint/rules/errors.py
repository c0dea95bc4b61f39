"""Rules ``no-bare-except`` and ``typed-serving-errors``.

The serving layer's contract (PR 6) is that every failure a caller can
see is a typed :class:`~repro.serving.ServingError` — the network edge
maps subclasses to status codes, tests branch on them, and the chaos
suite locks that injected raw failures get wrapped.  Two rules defend
that contract:

* ``no-bare-except`` (whole tree) — a bare ``except:`` swallows
  ``KeyboardInterrupt``/``SystemExit`` and hides the very failures the
  taxonomy exists to type.  Catch a concrete type (``except
  BaseException`` is allowed when intentional: it is explicit).
* ``typed-serving-errors`` (``serving/`` only) — ``raise`` statements in
  serving code must construct either a taxonomy class from
  ``serving/errors.py``, the chaos harness's ``InjectedFault``, or a
  builtin argument-validation error (``ValueError``/``TypeError``/...).
  Raising a variable (re-raise patterns) or a lowercase factory helper
  (``raise _rewrap(err)``) is allowed — the type was constructed
  elsewhere, where this rule saw it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, Finding, Rule, register_rule

__all__ = ["NoBareExcept", "TypedServingErrors"]

#: Builtins acceptable for programmer-error validation in serving code.
_VALIDATION_ERRORS = frozenset(
    {"ValueError", "TypeError", "KeyError", "IndexError", "NotImplementedError", "AssertionError"}
)


def _taxonomy() -> frozenset:
    from ....serving import errors as serving_errors

    return frozenset(serving_errors.__all__)


@register_rule
class NoBareExcept(Rule):
    """No ``except:`` handlers anywhere in the tree.

    Example::

        try:
            risky()
        except:              # FLAGGED
            pass
        except Exception:    # ok — explicit
            pass
    """

    id = "no-bare-except"
    description = "bare `except:` handlers are forbidden everywhere"
    hint = "name the exception type (`except Exception:` at the broadest)"
    paths = ()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self,
                    node,
                    "bare `except:` swallows KeyboardInterrupt/SystemExit "
                    "and untypes the failure",
                )


@register_rule
class TypedServingErrors(Rule):
    """Serving code raises only the ``serving/errors.py`` taxonomy.

    Example::

        raise RuntimeError("queue full")          # FLAGGED
        raise ServiceOverloadedError("queue full")  # ok
        raise ValueError("capacity must be >= 1")   # ok — arg validation
    """

    id = "typed-serving-errors"
    description = (
        "serving code raises only the typed ServingError taxonomy "
        "(plus builtin validation errors)"
    )
    hint = (
        "raise a ServingError subclass from serving/errors.py (add one if "
        "the failure mode is new)"
    )
    paths = ("serving/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allowed = _taxonomy() | _VALIDATION_ERRORS | {"InjectedFault"}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if not isinstance(exc, ast.Call):
                continue  # `raise err` re-raise of a variable: typed at its source
            func = exc.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if not name or not name[0].isupper():
                continue  # `raise _rewrap(err)`: factory helpers return typed errors
            if name not in allowed:
                yield ctx.finding(
                    self,
                    node,
                    f"serving code raises {name}; callers cannot branch on "
                    "untyped failures",
                )
