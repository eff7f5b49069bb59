"""The objective DSL: what "better" means, read off sweep records.

An :class:`Objective` is parsed from a one-line declaration::

    maximize goodput/cost s.t. tpot_p99<=0.05
    minimize stage_time_s s.t. score_retention>=0.995
    pareto(cost, goodput, slo_attainment)

Grammar (whitespace-insensitive)::

    objective   := scalar | pareto
    scalar      := ("maximize" | "minimize") expr [st]
    pareto      := "pareto(" metric ("," metric)* ")" [st]
    metric      := ["min:" | "max:"] expr
    st          := "s.t." constraint ("," constraint)*
    constraint  := expr ("<=" | ">=" | "<" | ">") expr

Expressions are a strict arithmetic subset of Python (names, numeric
literals, ``+ - * /``, unary minus, parentheses) evaluated by walking
the ``ast`` — never ``eval``.  Names resolve against a candidate's
*record* (the target's result dict) first, then a small alias table
(``goodput`` → ``goodput_tokens_per_s``, ``cost`` → ``cost_per_token``,
``tpot_p99`` → ``tpot_p99_ms`` rescaled to seconds, …), then the
candidate's *config* — so a constraint can reference a swept axis.  A
name that resolves nowhere, or a non-finite value, makes the candidate
**infeasible** (a deterministic verdict, not an error): a search over
heterogeneous records keeps going and simply never promotes what it
cannot score.

Directions: ``pareto()`` members take an explicit ``min:``/``max:``
prefix or fall back to a name heuristic — anything mentioning cost,
latency or time minimizes, everything else maximizes.  All comparisons
inside the engine use **minimization convention**: an objective vector
negates maximized metrics, so dominance is elementwise ``<=`` with one
strict ``<`` (:func:`dominates`, :func:`pareto_front`).
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass

__all__ = [
    "Constraint",
    "Metric",
    "MissingMetric",
    "Objective",
    "dominates",
    "pareto_front",
    "parse_objective",
]

#: Aliases: short DSL names → (record field, scale).  Scales convert
#: the record's display units back to SI so constraint literals read
#: naturally (``tpot_p99<=0.05`` means 50 ms against ``tpot_p99_ms``).
ALIASES: dict[str, tuple[str, float]] = {
    "goodput": ("goodput_tokens_per_s", 1.0),
    "cost": ("cost_per_token", 1.0),
    "throughput": ("throughput_tokens_per_s", 1.0),
    "ttft_p50": ("ttft_p50_ms", 1e-3),
    "ttft_p99": ("ttft_p99_ms", 1e-3),
    "tpot_p50": ("tpot_p50_ms", 1e-3),
    "tpot_p99": ("tpot_p99_ms", 1e-3),
    "e2e_p99": ("e2e_p99_s", 1.0),
    "makespan": ("makespan_ms", 1e-3),
}

#: Name fragments that flip the default pareto direction to minimize.
_MINIMIZE_HINTS = ("cost", "latency", "time", "ttft", "tpot", "e2e", "p99", "p50", "makespan")


class MissingMetric(KeyError):
    """A DSL name resolved against neither record, aliases nor config."""


#: Deepest expression tree the DSL accepts.  :meth:`Expr.evaluate`
#: recurses once per level, so a deeper tree (a sum of a thousand terms
#: is a thousand levels) would overflow the stack mid-search.
_MAX_DEPTH = 200


def _check_expr(tree: ast.AST, text: str) -> None:
    allowed_ops = (ast.Add, ast.Sub, ast.Mult, ast.Div)
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise ValueError(
                f"objective expression nests deeper than {_MAX_DEPTH} levels: {text[:60]!r}"
            )
        stack.extend((child, depth + 1) for child in ast.iter_child_nodes(node))
        if isinstance(node, (ast.Expression, ast.Name, ast.Load)):
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            try:
                float(node.value)
            except OverflowError:
                raise ValueError(
                    f"numeric literal out of range in objective expression {text[:60]!r}"
                ) from None
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, allowed_ops):
            continue
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            continue
        if isinstance(node, allowed_ops + (ast.USub, ast.UAdd)):
            continue
        raise ValueError(f"unsupported syntax in objective expression {text!r}: {ast.dump(node)}")


@dataclass(frozen=True)
class Expr:
    """One parsed arithmetic expression over record/config fields."""

    text: str

    def __post_init__(self) -> None:
        try:
            tree = ast.parse(self.text, mode="eval")
        except (SyntaxError, RecursionError, MemoryError) as exc:
            # The parser's own limits (a huge sum, a long run of unary
            # minus) surface as RecursionError / MemoryError.
            reason = getattr(exc, "msg", None) or "too deeply nested"
            raise ValueError(
                f"bad objective expression {self.text[:60]!r}: {reason}"
            ) from None
        _check_expr(tree, self.text)
        object.__setattr__(self, "_tree", tree)

    def names(self) -> tuple[str, ...]:
        return tuple(
            sorted({n.id for n in ast.walk(self._tree) if isinstance(n, ast.Name)})
        )

    def evaluate(self, record: dict, config: dict) -> float:
        """Evaluate against one candidate; raises :class:`MissingMetric`."""

        def as_float(value: object, name: str) -> float:
            # A null or non-numeric field is indistinguishable from an
            # absent one for scoring purposes: the candidate is simply
            # not scorable on this metric (e.g. cost_per_token is null
            # when a run produced zero tokens).
            if value is None or isinstance(value, bool):
                raise MissingMetric(name)
            try:
                return float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError, OverflowError):
                raise MissingMetric(name) from None

        def resolve(name: str) -> float:
            if record.get(name) is not None:
                return as_float(record[name], name)
            if name in ALIASES:
                field, scale = ALIASES[name]
                if record.get(field) is not None:
                    return as_float(record[field], name) * scale
            if name in config:
                return as_float(config[name], name)
            raise MissingMetric(name)

        def walk(node: ast.AST) -> float:
            if isinstance(node, ast.Expression):
                return walk(node.body)
            if isinstance(node, ast.Constant):
                return float(node.value)
            if isinstance(node, ast.Name):
                return resolve(node.id)
            if isinstance(node, ast.UnaryOp):
                value = walk(node.operand)
                return -value if isinstance(node.op, ast.USub) else value
            if isinstance(node, ast.BinOp):
                left, right = walk(node.left), walk(node.right)
                if isinstance(node.op, ast.Add):
                    return left + right
                if isinstance(node.op, ast.Sub):
                    return left - right
                if isinstance(node.op, ast.Mult):
                    return left * right
                return left / right if right != 0.0 else math.inf
            raise ValueError(f"unsupported node {node!r}")  # pragma: no cover

        value = walk(self._tree)
        if value is None or not math.isfinite(value):
            raise MissingMetric(self.text)
        return value


@dataclass(frozen=True)
class Metric:
    """One objective dimension: an expression plus a direction."""

    expr: Expr
    maximize: bool

    @property
    def name(self) -> str:
        return self.expr.text


@dataclass(frozen=True)
class Constraint:
    """One feasibility predicate: ``lhs OP rhs``."""

    lhs: Expr
    op: str  # "<=", ">=", "<", ">"
    rhs: Expr

    def satisfied(self, record: dict, config: dict) -> bool:
        left = self.lhs.evaluate(record, config)
        right = self.rhs.evaluate(record, config)
        if self.op == "<=":
            return left <= right
        if self.op == ">=":
            return left >= right
        if self.op == "<":
            return left < right
        return left > right

    @property
    def text(self) -> str:
        return f"{self.lhs.text}{self.op}{self.rhs.text}"


def _default_maximize(expr_text: str) -> bool:
    lowered = expr_text.lower()
    return not any(hint in lowered for hint in _MINIMIZE_HINTS)


def _parse_metric(text: str) -> Metric:
    text = text.strip()
    if text.startswith("min:"):
        return Metric(Expr(text[4:].strip()), maximize=False)
    if text.startswith("max:"):
        return Metric(Expr(text[4:].strip()), maximize=True)
    return Metric(Expr(text), maximize=_default_maximize(text))


def _parse_constraints(text: str) -> tuple[Constraint, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        match = re.search(r"(<=|>=|<|>)", part)
        if match is None:
            raise ValueError(f"constraint {part!r} needs one of <=, >=, <, >")
        op = match.group(1)
        lhs, rhs = part.split(op, 1)
        out.append(Constraint(Expr(lhs.strip()), op, Expr(rhs.strip())))
    if not out:
        raise ValueError("empty constraint list after 's.t.'")
    return tuple(out)


@dataclass(frozen=True)
class Objective:
    """A parsed objective: metrics (with directions) plus constraints."""

    text: str
    metrics: tuple[Metric, ...]
    constraints: tuple[Constraint, ...] = ()

    @property
    def scalar(self) -> bool:
        """True for ``maximize``/``minimize`` (one metric) objectives."""
        return len(self.metrics) == 1

    def metric_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.metrics)

    def feasible(self, record: dict, config: dict) -> bool:
        """Whether every constraint holds (missing metric → infeasible)."""
        try:
            return all(c.satisfied(record, config) for c in self.constraints)
        except MissingMetric:
            return False

    def values(self, record: dict, config: dict) -> tuple[float, ...] | None:
        """Raw metric values in declaration order (``None`` if unscorable)."""
        try:
            return tuple(m.expr.evaluate(record, config) for m in self.metrics)
        except MissingMetric:
            return None

    def vector(self, record: dict, config: dict) -> tuple[float, ...] | None:
        """The minimization-convention objective vector, or ``None``.

        Maximized metrics are negated, so every comparison downstream
        is plain elementwise "smaller is better" — one convention for
        scalar and pareto objectives alike.
        """
        values = self.values(record, config)
        if values is None:
            return None
        return tuple(
            -v if m.maximize else v for m, v in zip(self.metrics, values)
        )


def parse_objective(text: str) -> Objective:
    """Parse the DSL (see module docstring); raises ``ValueError``."""
    src = text.strip()
    constraints: tuple[Constraint, ...] = ()
    if "s.t." in src:
        head, _, tail = src.partition("s.t.")
        constraints = _parse_constraints(tail)
        src = head.strip()
    lowered = src.lower()
    if lowered.startswith("pareto"):
        inner = src[len("pareto"):].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise ValueError(f"pareto objective must be 'pareto(a, b, ...)': {text!r}")
        members = [m for m in inner[1:-1].split(",") if m.strip()]
        if len(members) < 2:
            raise ValueError("pareto() needs at least two metrics")
        return Objective(text=text.strip(), metrics=tuple(_parse_metric(m) for m in members),
                         constraints=constraints)
    for keyword, maximize in (("maximize", True), ("minimize", False)):
        if lowered.startswith(keyword):
            expr = src[len(keyword):].strip()
            if not expr:
                raise ValueError(f"{keyword} needs an expression: {text!r}")
            return Objective(
                text=text.strip(),
                metrics=(Metric(Expr(expr), maximize=maximize),),
                constraints=constraints,
            )
    raise ValueError(
        f"objective must start with 'maximize', 'minimize' or 'pareto(': {text!r}"
    )


def dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """Whether ``a`` Pareto-dominates ``b`` (minimization convention)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_front(vectors: list[tuple[float, ...] | None]) -> list[int]:
    """Indices of non-dominated entries (``None`` vectors never make it).

    O(n²) pairwise — search frontiers are tens of points, not millions.
    Duplicate vectors are all kept (none dominates its twin), so ties
    survive to be broken deterministically by the caller.
    """
    out = []
    for i, v in enumerate(vectors):
        if v is None:
            continue
        if any(
            w is not None and j != i and dominates(w, v)
            for j, w in enumerate(vectors)
        ):
            continue
        out.append(i)
    return out
