"""Rule registry: lint rules selected by *name*, not by import.

Like the execution backends (:mod:`repro.engine.backends`), rules are
selected by name: they are registered under ``<family>-<rule>`` names,
every listing (``--help``, ``docs/LINT.md`` lockdown, fixture-test
parametrisation) derives from :func:`rule_names`, and extending the linter
is one :func:`register_rule` call::

    from repro.lint import Rule, register_rule

    @register_rule
    class NoPrintRule(Rule):
        name = "hygiene-no-print"
        severity = "warning"
        rationale = "library code reports through return values, not stdout"

        def check(self, module):
            for node in module.walk(ast.Call):
                if module.full_name(node.func) == "print":
                    yield self.finding(module, node, "print() in library code")

After that one call the rule runs everywhere rules are selected — the CLI
``repro lint``, the self-lint test, the CI lint job — and the docs lockdown
(``tests/test_docs.py``) demands a ``docs/LINT.md`` catalog entry for it.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Type

from .findings import SEVERITIES, Finding

__all__ = ["Rule", "all_rules", "get_rule", "register_rule", "rule_names"]

#: Every path kind the runner distinguishes (see ``LintModule.kind``).
PATH_KINDS = ("src", "tests", "benchmarks", "examples")

_REGISTRY: Dict[str, Type["Rule"]] = {}

#: Rule names are ``<family>-<rule>``: lowercase dash-separated segments, at
#: least two — the family prefix (``determinism``, ``lifecycle``, ``mp``,
#: ``hygiene``) groups the catalog, exactly like ``<flavor>-<strategy>``
#: groups the backend registry.
_NAME_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)+")


class Rule:
    """Base class of one lint rule.

    Subclasses set ``name`` (``<family>-<rule>``), ``severity`` (one of
    :data:`~repro.lint.findings.SEVERITIES`), ``rationale`` (one sentence
    tying the rule to the project guarantee it protects — surfaced in
    ``docs/LINT.md``) and ``scopes`` (the path kinds the rule applies to),
    and implement :meth:`check` yielding :class:`Finding` objects.
    """

    name: str = ""
    severity: str = "error"
    rationale: str = ""
    #: Path kinds (``LintModule.kind``) the rule runs on.  Rules that police
    #: result-affecting code only (wall-clock, env reads) restrict this to
    #: ``{"src"}``; hygiene rules apply everywhere.
    scopes: frozenset = frozenset(PATH_KINDS)

    def check(self, module) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` of this rule at ``node``'s location."""
        return Finding(rule=self.name, severity=self.severity,
                       path=module.display, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message)


def register_rule(rule_cls: Type[Rule]) -> Type[Rule]:
    """Register a :class:`Rule` subclass (usable as a class decorator).

    Names follow the ``<family>-<rule>`` convention — enforced here, because
    the suppression syntax, the docs lockdown and the fixture layout all key
    on the name.  Registering an existing name is an error (there is exactly
    one meaning per name, everywhere).
    """
    name = rule_cls.name
    if not _NAME_RE.fullmatch(name):
        raise ValueError(
            f"rule name {name!r} must be '<family>-<rule>' "
            f"(lowercase dash-separated segments, e.g. 'hygiene-no-print')")
    if name in _REGISTRY:
        raise ValueError(f"rule {name!r} is already registered")
    if rule_cls.severity not in SEVERITIES:
        raise ValueError(f"rule {name!r} severity {rule_cls.severity!r} "
                         f"must be one of {SEVERITIES}")
    unknown = set(rule_cls.scopes) - set(PATH_KINDS)
    if unknown:
        raise ValueError(f"rule {name!r} has unknown scopes {sorted(unknown)}; "
                         f"valid: {PATH_KINDS}")
    _REGISTRY[name] = rule_cls
    return rule_cls


def rule_names() -> List[str]:
    """Sorted names of all registered lint rules."""
    return sorted(_REGISTRY)


def get_rule(name: str) -> Rule:
    """Instantiate the named rule.  Raises ``KeyError`` naming the registry."""
    try:
        rule_cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(rule_names()) or "<none>"
        raise KeyError(f"unknown lint rule {name!r}; registered: {known}") from None
    return rule_cls()


def all_rules(names: Iterable[str] = None) -> List[Rule]:
    """Instances of the named rules (every registered rule when omitted)."""
    return [get_rule(name) for name in (rule_names() if names is None
                                        else names)]


# The rule families live in their own modules (they subclass Rule through
# this registry), imported here so the names register exactly once, at the
# same time as the registry itself — the idiom the backend registry uses.
from . import rules_determinism  # noqa: E402,F401
from . import rules_lifecycle  # noqa: E402,F401
from . import rules_hygiene  # noqa: E402,F401
