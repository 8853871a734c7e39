"""SQL front end for the hybrid warehouse.

The paper drives every join algorithm from a single SQL statement
submitted to the database (Section 4.1.1).  This package reproduces that
interface: a small SQL dialect covering exactly the paper's query class —

.. code-block:: sql

    SELECT extract_group(L.groupByExtractCol), COUNT(*)
    FROM T, L
    WHERE T.corPred <= 17 AND T.indPred <= 42000
      AND L.corPred <= 99 AND L.indPred <= 310000
      AND T.joinKey = L.joinKey
      AND days(T.predAfterJoin) - days(L.predAfterJoin) >= 0
      AND days(T.predAfterJoin) - days(L.predAfterJoin) <= 1
    GROUP BY extract_group(L.groupByExtractCol)

— is lexed, parsed, bound against the warehouse catalogs (one table must
live in the database, the other in HDFS), classified into local
predicates / the equi-join / post-join predicates, and translated into a
:class:`~repro.query.query.HybridQuery`.  :class:`~repro.sql.engine.SqlSession`
then executes it with any join algorithm, or lets the advisor choose.
"""

from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import parse_select
from repro.sql.translator import translate
from repro.sql.engine import SqlResult, SqlSession

__all__ = [
    "SqlResult",
    "SqlSession",
    "Token",
    "TokenType",
    "parse_select",
    "tokenize",
    "translate",
]
