package repro

import scala.util.Random
import repro.baselines.{NaiveSearch, TextJoins}

/** DuckDB-backed correctness checks: the joinability semantics of the
  * Scala implementations are re-derived in SQL over the raw inputs and
  * diffed row-by-row via the Oracle.
  */
class OracleSpec extends SparkSpec {

  test("equi joinability matches a DuckDB EXISTS query") {
    import spark.implicits._
    val q = Seq((0, "Tom"), (1, "Jerry"), (2, " Tyke "), (3, "Spike"), (4, "Butch"))
    val s = Seq("Tom", "Tyke", "Quacker", "Tom")
    val qDf = q.toDF("id", "v")
    val sDf = s.map(Tuple1(_)).toDF("v")

    // Scala-side count via TextJoins, wrapped in a one-row DataFrame
    val matched = (TextJoins.equiJoinability(q.map(_._2), s) * q.size).round
    val sparkDf = Seq(Tuple1(matched)).toDF("matched")

    Oracle.assertEquivalent(
      sparkDf,
      "SELECT count(*) AS matched FROM q WHERE EXISTS " +
        "(SELECT 1 FROM s WHERE trim(s.v) = trim(q.v))",
      "q" -> qDf, "s" -> sDf)
  }

  test("equi joinable-column search matches DuckDB per-column counts") {
    import spark.implicits._
    val rng = new Random(1)
    val pool = repro.lake.Entities.pool(repro.lake.Entities.DomainType.Person, 20, 5L)
    val cols = (0 until 4).map { c =>
      TextJoins.StringColumn(c, s"c$c", IndexedSeq.fill(10)(pool(rng.nextInt(pool.size))))
    }
    val query = IndexedSeq.fill(8)(pool(rng.nextInt(pool.size)))

    val sparkDf = cols.map { c =>
      (c.colId, query.count(qv => c.values.exists(_.trim == qv.trim)).toLong)
    }.toDF("colid", "matched")

    val qDf = query.zipWithIndex.map { case (v, i) => (i, v) }.toDF("id", "v")
    val tDf = cols.flatMap(c => c.values.map(v => (c.colId, v))).toDF("colid", "v")

    Oracle.assertEquivalent(
      sparkDf,
      """SELECT CAST(t.colid AS INT) AS colid, count(DISTINCT q.id) AS matched
        |FROM q JOIN t ON trim(q.v) = trim(t.v)
        |GROUP BY t.colid
        |UNION ALL
        |SELECT CAST(colid AS INT) AS colid, 0 AS matched FROM t
        |WHERE colid NOT IN (SELECT t2.colid FROM q q2 JOIN t t2 ON trim(q2.v) = trim(t2.v))
        |GROUP BY colid""".stripMargin,
      "q" -> qDf, "t" -> tDf)
  }

  test("vector joinability counts match a DuckDB distance query") {
    import spark.implicits._
    val (cols, query) = TestData.searchInstance(seed = 42, nCols = 5, colSize = 6,
      qSize = 4, dim = 4)
    val tau = 0.45

    // Scala-side counts via NaiveSearch; the SQL groups only joined rows,
    // so columns without a match are left out
    val counts = cols.map { c =>
      (c.colId, (NaiveSearch.joinability(c, query, tau) * query.length).round)
    }.filter(_._2 > 0)
    assert(counts.nonEmpty)
    val sparkDf = counts.toDF("colid", "matched")

    val qDf = query.zipWithIndex.map { case (v, i) =>
      (i, v(0), v(1), v(2), v(3))
    }.toSeq.toDF("qid", "d0", "d1", "d2", "d3")
    val tDf = cols.flatMap(c => c.vectors.zipWithIndex.map { case (v, i) =>
      (c.colId, i, v(0), v(1), v(2), v(3))
    }).toDF("colid", "vid", "d0", "d1", "d2", "d3")

    Oracle.assertEquivalent(
      sparkDf,
      s"""SELECT CAST(t.colid AS INT) AS colid, count(DISTINCT q.qid) AS matched
         |FROM q JOIN t ON sqrt(
         |    pow(CAST(q.d0 AS DOUBLE) - CAST(t.d0 AS DOUBLE), 2) +
         |    pow(CAST(q.d1 AS DOUBLE) - CAST(t.d1 AS DOUBLE), 2) +
         |    pow(CAST(q.d2 AS DOUBLE) - CAST(t.d2 AS DOUBLE), 2) +
         |    pow(CAST(q.d3 AS DOUBLE) - CAST(t.d3 AS DOUBLE), 2)) <= $tau
         |GROUP BY t.colid""".stripMargin,
      "q" -> qDf, "t" -> tDf)
  }
}
