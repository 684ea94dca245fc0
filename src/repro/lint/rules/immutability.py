"""``b2sr-immutability``: no in-place mutation of plan-bearing arrays.

PR 5 froze every B2SR array at construction: that freeze is the *whole*
safety argument for memoized :class:`~repro.kernels.plan.SweepPlan`\\ s
(chunk tables, gather indices, masked-gather indices) never going stale, and
for the serving registry sharing warm plans across thousands of
launches.  One ``setflags(write=True)`` anywhere outside the format
module silently re-opens the door to stale-plan wrong answers — the
worst kind: bitwise-plausible, no exception.

Outside ``formats/b2sr.py`` and ``kernels/plan.py`` (the owners of the
frozen state) the rule flags, for the guarded field names
(``tiles`` / ``indices`` / ``indptr`` / ``trows`` / ``gather_index``):

* ``<anything>.setflags(write=True)`` — re-enabling writes anywhere is
  a red flag, guarded field or not;
* augmented assignment through a guarded attribute
  (``m.tiles[i] |= x``, ``m.indices += 1``);
* item assignment through a guarded attribute (``m.tiles[i] = v``);
* ``np.<ufunc>.at(m.tiles, ...)`` scatters into a guarded attribute.
"""

from __future__ import annotations

import ast

from repro.lint.core import LintContext, Rule, RuleVisitor

#: Attribute names whose backing arrays are frozen at construction.
GUARDED_ATTRS = frozenset(
    {"tiles", "indices", "indptr", "trows", "gather_index"}
)
_EXEMPT = ("formats/b2sr.py", "kernels/plan.py")


def _container_guarded(node: ast.AST) -> str | None:
    """Guarded attribute the write lands *in*, or ``None``.

    Follows the container chain only (``m.tiles[i]`` → ``m.tiles``): a
    guarded array used as an *index* into some other target
    (``out[m.indices] = v``) writes ``out``, not the frozen field, and
    must not match.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in GUARDED_ATTRS:
        return node.attr
    return None


class _Visitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "setflags":
            for kw in node.keywords:
                if (
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value
                ):
                    self.report(
                        node,
                        "setflags(write=True) re-enables writes on a "
                        "frozen array; memoized sweep plans assume "
                        "immutability",
                    )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "at"
            and node.args
        ):
            attr = _container_guarded(node.args[0])
            if attr is not None:
                self.report(
                    node,
                    f"ufunc.at scatter into frozen field .{attr}",
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _container_guarded(node.target)
        if attr is not None:
            self.report(
                node,
                f"augmented assignment mutates frozen field .{attr} "
                "in place",
            )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            # Item/slice writes only: plain attribute rebinding is the
            # constructor's job and raises on frozen classes anyway.
            if isinstance(target, ast.Subscript):
                attr = _container_guarded(target)
                if attr is not None:
                    self.report(
                        node,
                        f"item assignment writes through frozen field "
                        f".{attr}",
                    )
        self.generic_visit(node)


class B2SRImmutabilityRule(Rule):
    id = "b2sr-immutability"
    description = (
        "no in-place mutation of B2SR/plan-bearing arrays outside "
        "formats/b2sr.py and kernels/plan.py (frozen arrays are what "
        "keep memoized SweepPlans valid)"
    )
    hint = (
        "build a new B2SRMatrix (from_tiles/convert) instead of "
        "mutating; if this code legitimately owns the array, it "
        "belongs in formats/b2sr.py or kernels/plan.py"
    )

    def applies_to(self, path: str) -> bool:
        return not self.in_tests(path) and not any(
            path.endswith(e) for e in _EXEMPT
        )

    def visitor(self, ctx: LintContext) -> RuleVisitor:
        return _Visitor(self, ctx)


__all__ = ["B2SRImmutabilityRule", "GUARDED_ATTRS"]
