"""Binding and translation: SQL AST → :class:`HybridQuery`.

The translator resolves the FROM tables against the warehouse catalogs —
exactly one must live in HDFS, and one *or more* in the database (the
paper's Section 2 position: multi-table queries resolve their database
joins inside the EDW, whose optimizer owns join ordering).  It then
classifies the WHERE conjuncts into

* local predicates on each database table,
* local predicates on the HDFS table,
* in-database equi-joins (star-schema dimension joins, executed by
  :meth:`repro.edw.database.ParallelDatabase.join_local` before the
  hybrid join),
* exactly one cross-system equi-join condition, and
* post-join predicates over both sides (including the paper's
  ``days(a) - days(b) BETWEEN`` window),

derives the minimal projections each side must ship, turns grouping UDFs
into scan-time derived columns, and assembles the
:class:`~repro.query.query.HybridQuery` the join algorithms execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import UdfError
from repro.query.query import DerivedColumn, HybridQuery
from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import (
    BetweenDayDiff,
    InSetPredicate,
    ColumnPairPredicate,
    ColumnPredicate,
    CompareOp,
    Predicate,
    TruePredicate,
    UdfPredicate,
    conjunction_of,
)
from repro.sql.ast import (
    Aggregate,
    InList,
    BinaryOp,
    ColumnRef,
    FuncCall,
    Literal,
    SelectStatement,
)
from repro.sql.lexer import SqlError

#: Functions treated as the identity over date columns (dates are stored
#: as day numbers, so ``days(x)`` is x).
DATE_IDENTITY_FUNCS = {"days", "day"}

#: Sentinel db_table value while pre-joins have not materialised yet.
PREJOIN_PLACEHOLDER = "__prejoined_fact__"


@dataclass(frozen=True)
class BoundColumn:
    """A column resolved to one table on one side of the hybrid join."""

    side: str        # "db" or "hdfs"
    column: str
    binding: str = ""

    def prefixed(self, query_db_prefix="t_", query_hdfs_prefix="l_") -> str:
        """Name on the joined (prefixed) schema."""
        prefix = query_db_prefix if self.side == "db" else query_hdfs_prefix
        return f"{prefix}{self.column}"


@dataclass(frozen=True)
class PrejoinStep:
    """One in-database dimension join of the star pre-join chain."""

    right_table: str          # real catalog name of the dimension
    left_key: str             # key column on the accumulated fact side
    right_key: str            # key column on the dimension
    right_predicate: Predicate
    right_projection: Tuple[str, ...]


@dataclass
class Translation:
    """A translated statement plus presentation metadata."""

    query: HybridQuery
    #: Result column names in select order (post-rename).
    output_names: List[str]
    #: Mapping applied to the algorithm result (internal -> display).
    renames: Dict[str, str]
    #: AVG aggregates that were decomposed into SUM + COUNT; maps the
    #: display name to its (sum_name, count_name) internals.
    avg_decompositions: Dict[str, Tuple[str, str]]
    #: Final presentation ordering: (output column, descending) pairs.
    ordering: List[Tuple[str, bool]] = field(default_factory=list)
    #: Row limit applied after ordering (None = all rows).
    limit: Optional[int] = None
    #: In-database pre-joins to run before the hybrid join (star schema).
    prejoins: List[PrejoinStep] = field(default_factory=list)
    #: The fact table (real name), its predicate and projection for the
    #: first pre-join step.  Unused when ``prejoins`` is empty.
    fact_table: str = ""
    fact_predicate: Predicate = field(default_factory=TruePredicate)
    fact_projection: Tuple[str, ...] = ()

    def needs_prejoin(self) -> bool:
        """True when the statement joins dimensions inside the EDW."""
        return bool(self.prejoins)


class _Binder:
    def __init__(self, statement: SelectStatement, warehouse):
        self.statement = statement
        self.warehouse = warehouse
        self.udfs = warehouse.udfs
        #: binding name -> (side, schema, real table name)
        self.sides: Dict[str, Tuple[str, object, str]] = {}
        #: database binding names in FROM order
        self.db_bindings: List[str] = []
        self._bind_tables()

    # ------------------------------------------------------------------
    def _bind_tables(self) -> None:
        if len(self.statement.tables) < 2:
            raise SqlError(
                "hybrid queries join at least two tables (one in the "
                "database, one in HDFS)"
            )
        hdfs_tables = []
        for table in self.statement.tables:
            in_db = self._db_has(table.name)
            in_hdfs = self._hdfs_has(table.name)
            binding = table.binding_name()
            if binding in self.sides:
                raise SqlError(f"duplicate table binding {binding!r}")
            if in_db and in_hdfs:
                raise SqlError(
                    f"table {table.name!r} exists on both sides; "
                    "qualify your intent by renaming one"
                )
            if in_db:
                schema = self.warehouse.database.table_meta(
                    table.name
                ).schema
                self.sides[binding] = ("db", schema, table.name)
                self.db_bindings.append(binding)
            elif in_hdfs:
                schema = self.warehouse.hdfs.table_meta(table.name).schema
                self.sides[binding] = ("hdfs", schema, table.name)
                hdfs_tables.append(table)
            else:
                raise SqlError(f"unknown table {table.name!r}")
        if len(hdfs_tables) != 1:
            raise SqlError(
                "exactly one FROM table must live in HDFS "
                f"(found {len(hdfs_tables)}); all others must be "
                "database tables"
            )
        if not self.db_bindings:
            raise SqlError(
                "at least one FROM table must live in the database"
            )
        self.hdfs_binding = hdfs_tables[0].binding_name()
        self.hdfs_name = hdfs_tables[0].name

    def _db_has(self, name: str) -> bool:
        try:
            self.warehouse.database.table_meta(name)
            return True
        except Exception:
            return False

    def _hdfs_has(self, name: str) -> bool:
        try:
            self.warehouse.hdfs.table_meta(name)
            return True
        except Exception:
            return False

    # ------------------------------------------------------------------
    def bind_column(self, ref: ColumnRef) -> BoundColumn:
        """Resolve a (possibly unqualified) column reference."""
        if ref.table is not None:
            if ref.table not in self.sides:
                raise SqlError(f"unknown table qualifier {ref.table!r}")
            side, schema, _name = self.sides[ref.table]
            if not schema.has_column(ref.column):
                raise SqlError(
                    f"table {ref.table!r} has no column {ref.column!r}"
                )
            return BoundColumn(side, ref.column, ref.table)
        hits = []
        for binding, (side, schema, _name) in self.sides.items():
            if schema.has_column(ref.column):
                hits.append(BoundColumn(side, ref.column, binding))
        if not hits:
            raise SqlError(f"unknown column {ref.column!r}")
        if len(hits) > 1:
            raise SqlError(
                f"ambiguous column {ref.column!r}: qualify it with a "
                "table name"
            )
        return hits[0]

    def vectorized_udf(self, name: str):
        """A vectorised form of a registered scalar UDF."""
        if name not in self.udfs.names():
            raise SqlError(
                f"unknown UDF {name!r}; register it on the warehouse first"
            )

        def apply(values: np.ndarray) -> np.ndarray:
            if values.size == 0:
                return np.empty(0)
            vector = np.vectorize(lambda v: self.udfs.call(name, v))
            return vector(values)
        return apply


def _strip_date_identity(expression):
    """Unwrap ``days(x)`` to ``x``."""
    if isinstance(expression, FuncCall) and \
            expression.name.lower() in DATE_IDENTITY_FUNCS:
        return expression.argument
    return expression


def translate(statement: SelectStatement, warehouse) -> Translation:
    """Translate a parsed statement against the warehouse catalogs."""
    binder = _Binder(statement, warehouse)

    db_predicates: Dict[str, List[Predicate]] = {
        binding: [] for binding in binder.db_bindings
    }
    hdfs_predicates: List[Predicate] = []
    cross_joins: List[Tuple[BoundColumn, BoundColumn]] = []
    db_joins: List[Tuple[BoundColumn, BoundColumn]] = []
    post_lower: Dict[Tuple[str, str], int] = {}
    post_upper: Dict[Tuple[str, str], int] = {}
    post_other: List[Predicate] = []
    post_columns: Set[BoundColumn] = set()

    for comparison in statement.where:
        if isinstance(comparison, InList):
            _classify_in_list(comparison, binder, db_predicates,
                              hdfs_predicates)
            continue
        _classify(comparison, binder, db_predicates, hdfs_predicates,
                  cross_joins, db_joins, post_lower, post_upper,
                  post_other, post_columns)

    if len(cross_joins) != 1:
        raise SqlError(
            f"expected exactly one cross-system equi-join condition, "
            f"found {len(cross_joins)}"
        )
    db_side, hdfs_side = cross_joins[0]

    post_predicates = list(post_other)
    for (left, right) in set(post_lower) | set(post_upper):
        low = post_lower.get((left, right))
        high = post_upper.get((left, right))
        post_predicates.append(BetweenDayDiff(
            left, right,
            low=low if low is not None else -(2**31),
            high=high if high is not None else 2**31,
        ))

    # ------------------------------------------------------------------
    # Select list: group expressions and aggregates.
    # ------------------------------------------------------------------
    group_exprs = [_strip_date_identity(e) for e in statement.group_by]
    derived: List[DerivedColumn] = []
    group_names: List[str] = []
    #: columns each table must contribute downstream.
    needed: Dict[str, Set[str]] = {
        binding: set() for binding in binder.sides
    }

    def note_needed(bound: BoundColumn) -> None:
        needed[bound.binding].add(bound.column)

    for expression in group_exprs:
        name, _display = _bind_group_expression(
            expression, binder, derived, note_needed,
        )
        group_names.append(name)

    aggregates: List[AggregateSpec] = []
    output_names: List[str] = []
    renames: Dict[str, str] = {}
    avg_decompositions: Dict[str, Tuple[str, str]] = {}
    aggregate_signatures: List[Tuple[str, Optional[str], str]] = []
    seen_groups = 0

    for item in statement.select_items:
        if isinstance(item.expression, Aggregate):
            _bind_aggregate(
                item.expression, item.alias, binder, aggregates,
                output_names, renames, avg_decompositions, note_needed,
                aggregate_signatures,
            )
            continue
        expression = _strip_date_identity(item.expression)
        name, display = _bind_group_expression(
            expression, binder, derived, note_needed,
        )
        if name not in group_names:
            raise SqlError(
                f"select expression {display!r} is not in GROUP BY"
            )
        seen_groups += 1
        final = item.alias or display
        renames[name] = final
        output_names.append(final)

    if not group_names:
        raise SqlError(
            "the paper's query template always groups and aggregates; "
            "add a GROUP BY"
        )
    if seen_groups != len(group_names):
        raise SqlError("every GROUP BY expression must appear in SELECT")
    if not aggregates:
        raise SqlError("at least one aggregate is required")

    for bound in post_columns:
        note_needed(bound)

    # ------------------------------------------------------------------
    # Star pre-join plan (multiple database tables).  The hybrid join's
    # projection is fixed *before* planning: the pre-join key columns the
    # planner adds are consumed inside the database and never shipped.
    # ------------------------------------------------------------------
    db_needed_all: Set[str] = set()
    for binding in binder.db_bindings:
        db_needed_all |= needed[binding]

    prejoins: List[PrejoinStep] = []
    fact_binding = db_side.binding
    if len(binder.db_bindings) > 1:
        prejoins = _plan_prejoins(binder, fact_binding, db_joins,
                                  db_predicates, needed)
    elif db_joins:
        raise SqlError(
            "in-database join conditions require more than one database "
            "table in FROM"
        )

    # ------------------------------------------------------------------
    # Projections: join keys + post-join columns + grouping/aggregates.
    # ------------------------------------------------------------------
    db_projection = [db_side.column] + sorted(
        db_needed_all - {db_side.column}
    )
    hdfs_needed = needed[binder.hdfs_binding]
    hdfs_projection = [hdfs_side.column] + sorted(
        hdfs_needed - {hdfs_side.column}
    )

    if prejoins:
        db_table_name = PREJOIN_PLACEHOLDER
        db_predicate: Predicate = TruePredicate()
        fact_projection = tuple(
            sorted(needed[fact_binding] | {db_side.column})
        )
        fact_predicate = conjunction_of(db_predicates[fact_binding])
        fact_table = binder.sides[fact_binding][2]
    else:
        db_table_name = binder.sides[fact_binding][2]
        db_predicate = conjunction_of(db_predicates[fact_binding])
        fact_projection = ()
        fact_predicate = TruePredicate()
        fact_table = ""

    query = HybridQuery(
        db_table=db_table_name,
        hdfs_table=binder.hdfs_name,
        db_join_key=db_side.column,
        hdfs_join_key=hdfs_side.column,
        db_projection=tuple(db_projection),
        hdfs_projection=tuple(hdfs_projection),
        db_predicate=db_predicate,
        hdfs_predicate=conjunction_of(hdfs_predicates),
        hdfs_derived=tuple(derived),
        post_join_predicate=(
            conjunction_of(post_predicates) if post_predicates else None
        ),
        group_by=tuple(group_names),
        aggregates=tuple(aggregates),
    )
    ordering = [
        (_resolve_order_target(item.expression, binder, output_names,
                               renames, derived, aggregate_signatures),
         item.descending)
        for item in statement.order_by
    ]
    return Translation(
        query=query,
        output_names=output_names,
        renames=renames,
        avg_decompositions=avg_decompositions,
        ordering=ordering,
        limit=statement.limit,
        prejoins=prejoins,
        fact_table=fact_table,
        fact_predicate=fact_predicate,
        fact_projection=fact_projection,
    )


def _resolve_order_target(expression, binder, output_names, renames,
                          derived, aggregate_signatures) -> str:
    """Map an ORDER BY expression to an output column name."""
    expression = _strip_date_identity(expression)
    # A bare name may simply be a select alias / output column.
    if isinstance(expression, ColumnRef) and expression.table is None \
            and expression.column in output_names:
        return expression.column
    if isinstance(expression, Aggregate):
        argument = expression.argument
        if argument is None:
            signature = (expression.function, None)
        else:
            argument = _strip_date_identity(argument)
            display = getattr(argument, "display", lambda: "?")()
            signature = (expression.function, display)
        for function, arg_display, output in aggregate_signatures:
            if (function, arg_display) == signature:
                return output
        raise SqlError(
            "ORDER BY aggregates must appear in SELECT "
            f"(could not match {expression.function.upper()})"
        )
    if isinstance(expression, (ColumnRef, FuncCall)):
        internal, display = _bind_group_expression(
            expression, binder, list(derived), lambda bound: None,
        )
        final = renames.get(internal)
        if final in output_names:
            return final
        if display in output_names:
            return display
        raise SqlError(
            f"ORDER BY expression {display!r} must appear in SELECT"
        )
    raise SqlError(f"unsupported ORDER BY expression: {expression!r}")


def _plan_prejoins(binder, fact_binding, db_joins, db_predicates,
                   needed) -> List[PrejoinStep]:
    """Left-deep dimension-join chain rooted at the fact table."""
    steps: List[PrejoinStep] = []
    joined = {fact_binding}
    remaining = [binding for binding in binder.db_bindings
                 if binding != fact_binding]
    conditions = list(db_joins)
    while remaining:
        progressed = False
        for condition in list(conditions):
            left, right = condition
            if left.binding in joined and right.binding in remaining:
                inner, outer = left, right
            elif right.binding in joined and left.binding in remaining:
                inner, outer = right, left
            else:
                continue
            # The joined set's key column must survive the chain so far.
            needed[inner.binding].add(inner.column)
            steps.append(PrejoinStep(
                right_table=binder.sides[outer.binding][2],
                left_key=inner.column,
                right_key=outer.column,
                right_predicate=conjunction_of(
                    db_predicates[outer.binding]
                ),
                right_projection=tuple(sorted(needed[outer.binding])),
            ))
            joined.add(outer.binding)
            remaining.remove(outer.binding)
            conditions.remove(condition)
            progressed = True
            break
        if not progressed:
            raise SqlError(
                "database tables "
                f"{remaining!r} have no join condition connecting them "
                "to the fact table"
            )
    if conditions:
        raise SqlError(
            "redundant in-database join conditions are not supported "
            "(each dimension joins the fact chain exactly once)"
        )
    return steps


# ---------------------------------------------------------------------------
# WHERE classification
# ---------------------------------------------------------------------------
def _classify_in_list(condition, binder, db_predicates, hdfs_predicates):
    """``col IN (...)`` is a local predicate on whichever side owns it."""
    expression = _strip_date_identity(condition.expression)
    if not isinstance(expression, ColumnRef):
        raise SqlError("IN applies to a single column")
    bound = binder.bind_column(expression)
    predicate = InSetPredicate(bound.column, tuple(condition.values))
    if bound.side == "db":
        db_predicates[bound.binding].append(predicate)
    else:
        hdfs_predicates.append(predicate)



def _classify(comparison, binder, db_predicates, hdfs_predicates,
              cross_joins, db_joins, post_lower, post_upper, post_other,
              post_columns):
    left = _strip_date_identity(comparison.left)
    right = _strip_date_identity(comparison.right)

    # literal on the left: normalise to the right.
    if isinstance(left, Literal) and not isinstance(right, Literal):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                   "==": "==", "!=": "!="}
        _classify(
            type(comparison)(flipped[comparison.op], right, left),
            binder, db_predicates, hdfs_predicates, cross_joins,
            db_joins, post_lower, post_upper, post_other, post_columns,
        )
        return

    # col = col : join condition or post-join comparison.
    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        bound_left = binder.bind_column(left)
        bound_right = binder.bind_column(right)
        if bound_left.side == bound_right.side:
            if bound_left.side == "db" and \
                    bound_left.binding != bound_right.binding and \
                    comparison.op == "==":
                db_joins.append((bound_left, bound_right))
                return
            raise SqlError(
                "single-table column-to-column predicates are not part "
                "of the paper's query template"
            )
        if comparison.op == "==":
            if bound_left.side == "db":
                cross_joins.append((bound_left, bound_right))
            else:
                cross_joins.append((bound_right, bound_left))
            return
        post_other.append(ColumnPairPredicate(
            bound_left.prefixed(), CompareOp(comparison.op),
            bound_right.prefixed(),
        ))
        post_columns.update((bound_left, bound_right))
        return

    # (a - b) op literal : post-join window.
    if isinstance(left, BinaryOp) and isinstance(right, Literal):
        _classify_window(left, comparison.op, right.value, binder,
                         post_lower, post_upper, post_columns)
        return

    # udf(col) op literal, or col op literal: local predicate.
    if isinstance(right, Literal):
        if isinstance(left, FuncCall):
            inner = left.argument
            if not isinstance(inner, ColumnRef):
                raise SqlError(
                    f"unsupported UDF argument in {left.name}(...)"
                )
            bound = binder.bind_column(inner)
            literal = right.value
            op = CompareOp(comparison.op)
            vector = binder.vectorized_udf(left.name)

            def mask(values, vector=vector, op=op, literal=literal):
                return op.apply(vector(values), literal)

            predicate = UdfPredicate(left.name, bound.column, mask)
        elif isinstance(left, ColumnRef):
            bound = binder.bind_column(left)
            predicate = ColumnPredicate(
                bound.column, CompareOp(comparison.op), right.value
            )
        else:
            raise SqlError(f"unsupported predicate shape: {comparison}")
        if bound.side == "db":
            db_predicates[bound.binding].append(predicate)
        else:
            hdfs_predicates.append(predicate)
        return

    raise SqlError(f"unsupported predicate shape: {comparison}")


def _classify_window(binary, op, literal, binder, post_lower, post_upper,
                     post_columns):
    if binary.op != "-":
        raise SqlError(
            "only differences are supported in post-join windows "
            "(days(a) - days(b))"
        )
    left = _strip_date_identity(binary.left)
    right = _strip_date_identity(binary.right)
    if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
        raise SqlError("post-join windows must compare two date columns")
    bound_left = binder.bind_column(left)
    bound_right = binder.bind_column(right)
    if bound_left.side == bound_right.side:
        raise SqlError(
            "post-join windows must span both sides of the join"
        )
    post_columns.update((bound_left, bound_right))
    key = (bound_left.prefixed(), bound_right.prefixed())
    literal = int(literal)
    if op in (">=", ">"):
        bound_value = literal if op == ">=" else literal + 1
        post_lower[key] = max(post_lower.get(key, bound_value), bound_value)
    elif op in ("<=", "<"):
        bound_value = literal if op == "<=" else literal - 1
        post_upper[key] = min(post_upper.get(key, bound_value), bound_value)
    elif op == "==":
        post_lower[key] = literal
        post_upper[key] = literal
    else:
        raise SqlError(f"unsupported window comparison {op!r}")


# ---------------------------------------------------------------------------
# SELECT binding
# ---------------------------------------------------------------------------
def _bind_group_expression(expression, binder, derived, note_needed):
    """Returns (internal prefixed name, display string)."""
    if isinstance(expression, ColumnRef):
        bound = binder.bind_column(expression)
        note_needed(bound)
        return bound.prefixed(), expression.display()
    if isinstance(expression, FuncCall):
        inner = expression.argument
        if not isinstance(inner, ColumnRef):
            raise SqlError("grouping UDFs must take a single column")
        bound = binder.bind_column(inner)
        if bound.side != "hdfs":
            raise SqlError(
                "grouping UDFs run in the JEN scan pipeline and must "
                "reference the HDFS table"
            )
        note_needed(bound)
        derived_name = f"{expression.name}_{bound.column}"
        if derived_name not in [d.name for d in derived]:
            try:
                function = _scalar_udf(binder, expression.name)
            except UdfError:
                raise SqlError(
                    f"unknown UDF {expression.name!r}; register it on the "
                    "warehouse first"
                ) from None
            derived.append(DerivedColumn(
                name=derived_name,
                source=bound.column,
                udf_name=expression.name,
                function=function,
            ))
        return f"l_{derived_name}", expression.display()
    raise SqlError(f"unsupported group expression: {expression!r}")


def _scalar_udf(binder, name: str):
    registry = binder.udfs
    if name not in registry.names():
        raise UdfError(f"unknown UDF {name!r}")
    return lambda value: registry.call(name, value)


def _bind_aggregate(aggregate, alias, binder, aggregates, output_names,
                    renames, avg_decompositions, note_needed,
                    aggregate_signatures):
    if aggregate.function == "count" and aggregate.argument is None:
        spec = AggregateSpec("count", alias=alias or "count")
        aggregates.append(spec)
        output_names.append(spec.output_name())
        aggregate_signatures.append(("count", None, spec.output_name()))
        return
    argument = _strip_date_identity(aggregate.argument)
    if not isinstance(argument, ColumnRef):
        raise SqlError(
            f"aggregate {aggregate.function.upper()} takes a single column"
        )
    bound = binder.bind_column(argument)
    note_needed(bound)
    internal_column = bound.prefixed()
    display = alias or (
        f"{aggregate.function}_{argument.display().replace('.', '_')}"
    )
    arg_display = argument.display()
    if aggregate.function == "avg":
        # Decompose into SUM + COUNT; the SQL engine divides at the end.
        sum_name = f"__avg_sum_{internal_column}"
        count_name = f"__avg_cnt_{internal_column}"
        aggregates.append(AggregateSpec("sum", internal_column,
                                        alias=sum_name))
        aggregates.append(AggregateSpec("count", alias=count_name))
        avg_decompositions[display] = (sum_name, count_name)
        output_names.append(display)
        aggregate_signatures.append(("avg", arg_display, display))
        return
    if aggregate.function == "count":
        spec = AggregateSpec("count", alias=alias or display)
    else:
        spec = AggregateSpec(aggregate.function, internal_column,
                             alias=display)
    aggregates.append(spec)
    output_names.append(spec.output_name())
    aggregate_signatures.append(
        (aggregate.function, arg_display, spec.output_name())
    )
